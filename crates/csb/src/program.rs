//! Microop *programs*: the program-granularity unit of broadcast.
//!
//! A [`MicroProgram`] is the compiled form of one vector instruction — a
//! fixed microop sequence plus its *sync points*. A sync point is a
//! microop whose result leaves the chains ([`MicroOp::ReduceTags`] feeds
//! the global reduction tree, [`MicroOp::Read`] returns row data); every
//! other microop is chain-local, so a worker owning a subset of chains
//! can run the whole program without talking to anyone and surrender its
//! partial reduction sums at a single join. This is what lets
//! [`Csb::execute_program`](crate::Csb::execute_program) pay one
//! fan-out/fan-in per *instruction* instead of one per *microop*.

use std::sync::Arc;

use crate::bitstep::{self, Addend, BitStep, Cell};
use crate::geometry::SUBARRAYS_PER_CHAIN;
use crate::microop::{MicroOp, Probe, TagDest, TagMode, WriteSpec};
use crate::stats::MicroOpStats;
use crate::subarray::TOTAL_ROWS;

/// The kind of value a sync point produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncKind {
    /// A [`MicroOp::ReduceTags`] op: per-chain popcounts summed by the
    /// reduction tree into one scalar.
    Reduce,
    /// A [`MicroOp::Read`] op: per-chain row data (chain-local; consumers
    /// read chain state after the program completes).
    Read,
}

/// One result-producing microop inside a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncPoint {
    /// Index of the microop within the program.
    pub op_index: usize,
    /// What the op produces.
    pub kind: SyncKind,
}

/// A search probe lowered for the broadcast hot loop: key rows live in a
/// fixed inline array (no nested heap to chase per chain) and key polarity
/// is an XOR mask (`0` to match ones, `!0` to match zeros), so the match
/// loop is branchless: `m &= row ^ inv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanProbe {
    pub subarray: u8,
    pub nkeys: u8,
    pub rows: [u8; 4],
    pub inv: [u32; 4],
}

/// A row write lowered to four bytes: `sel` picks the column source
/// (0 = window, 1 = `tags[src]`, 2 = `acc[src]`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PlanWrite {
    pub subarray: u8,
    pub row: u8,
    pub sel: u8,
    pub src: u8,
    pub value: bool,
}

/// A microop lowered into the dense, pre-validated form the kernels run.
/// Structural checks (probe key counts, one row per subarray per update,
/// index ranges) happen once here, at compile time, instead of once per
/// chain per op in the fan-out. The dominant bit-serial shapes — a single
/// ungated probe, an update of one or two rows — get inline variants, and
/// a run of them that an exhaustive check proves equal to one
/// truth-table bit-step becomes a [`PlanOp::BitStep`] when the
/// instruction compiles ([`MicroProgram::new`]).
///
/// Every variant is fixed-size `Copy` data. The two shapes with a
/// variable operand count, a general search and a general update, hold
/// an offset `at` and counts into their [`Plan`]'s side tables instead
/// of a heap slice, so the hot loop touches no per-op heap and a plan is
/// copied, not cloned op by op. The derived equality compares those
/// offsets, which depend on the table layout; compare plans with
/// [`Plan`]'s `==`, which resolves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanOp {
    /// One ungated probe (most bit-serial truth-table searches).
    SearchOne {
        probe: PlanProbe,
        dest: TagDest,
        mode: TagMode,
    },
    /// A fused truth-table step: one ungated search immediately followed
    /// by a one- or two-row update (`nwrites` ∈ {1, 2}) — the paper's TTM
    /// search-phase/update-phase pair issued as a single command. Produced
    /// by the peephole pass in [`MicroProgram::new`]; executing it is
    /// exactly the search followed by the update.
    Step {
        probe: PlanProbe,
        dest: TagDest,
        mode: TagMode,
        nwrites: u8,
        writes: [PlanWrite; 2],
    },
    /// General search: several probes and/or gate probes. Its `probes`
    /// match probes and then its `gates` gate probes sit at
    /// [`Plan::probes`]`[at..]`.
    Search {
        at: u32,
        probes: u8,
        gates: u8,
        dest: TagDest,
        mode: TagMode,
    },
    /// Single-row update (e.g. a carry write).
    UpdateOne {
        write: PlanWrite,
    },
    /// Two-row update (e.g. result bit + carry propagation).
    UpdateTwo {
        writes: [PlanWrite; 2],
    },
    /// General update (bit-parallel clears/copies touching many
    /// subarrays): `n` writes at [`Plan::writes`]`[at..]`.
    Update {
        at: u32,
        n: u8,
    },
    Read {
        subarray: u8,
        row: u8,
    },
    Write {
        subarray: u8,
        row: u8,
        data: u32,
        mask: u32,
    },
    ReduceTags {
        subarray: u8,
    },
    TagCombine {
        src: u8,
        dst: u8,
        op: TagMode,
    },
    /// One bit position of a truth-table pass, in place of the searches
    /// and updates it replaced ([`bitstep::derive`]).
    BitStep(BitStep),
}

// The broadcast loop copies plan ops and walks them as one array: keep
// them plain data, no wider than a fused step.
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<PlanOp>();
    assert!(std::mem::size_of::<PlanOp>() <= 40);
};

impl PlanOp {
    /// This op with its table offset moved past `probes` probe and
    /// `writes` write entries: its place in a concatenated plan.
    fn shifted(mut self, probes: u32, writes: u32) -> Self {
        match &mut self {
            PlanOp::Search { at, .. } => *at += probes,
            PlanOp::Update { at, .. } => *at += writes,
            _ => {}
        }
        self
    }
}

/// A lowered broadcast plan: the ops, the side tables its general
/// searches and updates index, how many reductions it produces and
/// which rows it may write. It is what the kernels run
/// ([`ChainBlock::run_plan`](crate::block::ChainBlock::run_plan)) and
/// what a window's passes rewrite.
///
/// Its ops and table entries are flat `Copy` data, so a window's plan is
/// its parts' vectors copied end to end with the offsets shifted, and a
/// broadcast runs it as one loop over `ops` with no pointer to chase per
/// op.
/// Table entries an op no longer references (a search or write the
/// dead-store pass dropped) stay in place and are never read.
///
/// Equality is by content: ops compare with their table entries
/// resolved ([`Plan::resolve`]), so it does not depend on the table
/// layout or on how a window was split into parts.
#[derive(Debug, Clone, Default)]
pub(crate) struct Plan {
    pub ops: Vec<PlanOp>,
    pub probes: Vec<PlanProbe>,
    pub writes: Vec<PlanWrite>,
    /// The number of [`PlanOp::ReduceTags`] in `ops`: the length of the
    /// sum vector one broadcast returns.
    pub reduces: usize,
    /// Bit `r` is set when a lowered [`MicroOp::Update`] or
    /// [`MicroOp::Write`] writes row `r` of some subarray. Taken from the
    /// ops as lowered, before any window pass drops a write, so it covers
    /// every row the plan can write: an armed shard folds these rows
    /// into their parity around each broadcast (see
    /// [`ChainBlock::run_plan`](crate::block::ChainBlock::run_plan)).
    pub written_rows: u64,
}

/// A plan op with its table entries resolved: what it does, wherever
/// its plan keeps them.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Resolved<'a> {
    Search {
        probes: &'a [PlanProbe],
        gates: &'a [PlanProbe],
        dest: TagDest,
        mode: TagMode,
    },
    Update(&'a [PlanWrite]),
    /// Every other op holds all its operands itself.
    Inline(PlanOp),
}

impl PartialEq for Plan {
    fn eq(&self, other: &Self) -> bool {
        self.ops.len() == other.ops.len()
            && self
                .ops
                .iter()
                .zip(&other.ops)
                .all(|(a, b)| self.resolve(*a) == other.resolve(*b))
    }
}

impl Eq for Plan {}

/// A table length as an op offset.
pub(crate) fn table_offset(len: usize) -> u32 {
    u32::try_from(len).expect("plan tables hold fewer than 2^32 entries")
}

/// An operand count as a plan op field.
fn operand_count(n: usize) -> u8 {
    u8::try_from(n).expect("a microop has at most 255 probes, gates or writes")
}

impl Plan {
    /// Lowers `ops` one for one (no step fusion), running each op's
    /// structural validation once.
    pub(crate) fn lower<'a>(ops: impl IntoIterator<Item = &'a MicroOp>) -> Self {
        let ops = ops.into_iter();
        let mut plan = Self {
            ops: Vec::with_capacity(ops.size_hint().0),
            ..Self::default()
        };
        for op in ops {
            let lowered = plan.lower_op(op);
            plan.ops.push(lowered);
        }
        plan
    }

    /// The parts' plans end to end: tables appended, each op's offsets
    /// shifted. Three copies per part, no allocation per op.
    fn concat<'a>(parts: impl Iterator<Item = &'a Self> + Clone) -> Self {
        let mut plan = Self {
            ops: Vec::with_capacity(parts.clone().map(|p| p.ops.len()).sum()),
            probes: Vec::with_capacity(parts.clone().map(|p| p.probes.len()).sum()),
            writes: Vec::with_capacity(parts.clone().map(|p| p.writes.len()).sum()),
            reduces: 0,
            written_rows: 0,
        };
        for part in parts {
            let probes = table_offset(plan.probes.len());
            let writes = table_offset(plan.writes.len());
            plan.probes.extend_from_slice(&part.probes);
            plan.writes.extend_from_slice(&part.writes);
            plan.ops
                .extend(part.ops.iter().map(|&op| op.shifted(probes, writes)));
            plan.reduces += part.reduces;
            plan.written_rows |= part.written_rows;
        }
        plan
    }

    /// The match probes and gate probes of a [`PlanOp::Search`].
    #[inline(always)]
    pub(crate) fn search(&self, at: u32, probes: u8, gates: u8) -> (&[PlanProbe], &[PlanProbe]) {
        self.probes[at as usize..][..usize::from(probes) + usize::from(gates)]
            .split_at(usize::from(probes))
    }

    /// The writes of a [`PlanOp::Update`].
    #[inline(always)]
    pub(crate) fn update(&self, at: u32, n: u8) -> &[PlanWrite] {
        &self.writes[at as usize..][..usize::from(n)]
    }

    /// `op`, one of this plan's ops, with its table entries resolved.
    pub(crate) fn resolve(&self, op: PlanOp) -> Resolved<'_> {
        match op {
            PlanOp::Search {
                at,
                probes,
                gates,
                dest,
                mode,
            } => {
                let (probes, gates) = self.search(at, probes, gates);
                Resolved::Search {
                    probes,
                    gates,
                    dest,
                    mode,
                }
            }
            PlanOp::Update { at, n } => Resolved::Update(self.update(at, n)),
            op => Resolved::Inline(op),
        }
    }
}

fn lower_probe(p: &Probe) -> PlanProbe {
    assert!(
        p.keys.len() <= 4,
        "hardware searches at most 4 rows, got {}",
        p.keys.len()
    );
    assert!(
        p.subarray < SUBARRAYS_PER_CHAIN,
        "subarray {} out of range",
        p.subarray
    );
    let mut rows = [0u8; 4];
    let mut inv = [0u32; 4];
    for (k, &(row, want)) in p.keys.iter().enumerate() {
        assert!(row < TOTAL_ROWS, "row {row} out of range");
        rows[k] = row as u8;
        inv[k] = if want { 0 } else { u32::MAX };
    }
    PlanProbe {
        subarray: p.subarray as u8,
        nkeys: p.keys.len() as u8,
        rows,
        inv,
    }
}

fn lower_write(w: &WriteSpec) -> PlanWrite {
    assert!(
        w.subarray < SUBARRAYS_PER_CHAIN,
        "subarray {} out of range",
        w.subarray
    );
    let (sel, src) = match w.cols {
        crate::microop::ColSel::Window => (0u8, 0usize),
        crate::microop::ColSel::Tags(s) => (1, s),
        crate::microop::ColSel::Acc(s) => (2, s),
    };
    assert!(src < SUBARRAYS_PER_CHAIN, "subarray {src} out of range");
    PlanWrite {
        subarray: w.subarray as u8,
        row: w.row as u8,
        sel,
        src: src as u8,
        value: w.value,
    }
}

fn check_index(i: usize) -> u8 {
    assert!(i < SUBARRAYS_PER_CHAIN, "subarray {i} out of range");
    i as u8
}

/// Peephole pass: fuses each single-probe search with a directly
/// following small update into one [`PlanOp::Step`]. Neither fused op
/// produces a result, so running both under a single dispatch is
/// observationally identical — it just halves the op-loop overhead on the
/// dominant search/update alternation of bit-serial arithmetic.
///
/// The pass is greedy, in place, and never consumes a
/// [`PlanOp::SearchOne`] it emitted, so it is idempotent, and over a
/// concatenation of already fused plans it can only fuse at the seams.
fn fuse_steps(ops: &mut Vec<PlanOp>) {
    // `dedup_by` hands each op with the last op it kept; returning true
    // drops the op, here after folding it into the kept search.
    ops.dedup_by(|op, kept| {
        let (nwrites, writes) = match op {
            PlanOp::UpdateOne { write } => (1, [*write, PlanWrite::default()]),
            PlanOp::UpdateTwo { writes } => (2, *writes),
            _ => return false,
        };
        let PlanOp::SearchOne { probe, dest, mode } = *kept else {
            return false;
        };
        *kept = PlanOp::Step {
            probe,
            dest,
            mode,
            nwrites,
            writes,
        };
        true
    });
}

/// Collapses *adjacent identical* [`PlanOp::TagCombine`]s, which show up
/// at fusion-window seams when one instruction ends and the next begins
/// with the same tag-bus transfer. All three modes are idempotent —
/// `Set` re-copies the unchanged source, `And`/`Or` re-apply an absorbed
/// mask — and nothing executes between adjacent plan ops, so dropping
/// the repeat is observationally identical.
fn dedup_tag_combines(ops: &mut Vec<PlanOp>) {
    ops.dedup_by(|op, kept| matches!(op, PlanOp::TagCombine { .. }) && op == kept);
}

/// Stores a plan performs: row writes (`PlanWrite`s and raw
/// [`PlanOp::Write`]s), search match stores (one per probe — the tag/acc
/// latch), tag-bus transfers, and a bit-step's destination row, tag and
/// accumulator latches and carry-out row. The peephole passes only ever
/// remove stores, so the before/after difference of this count is the
/// window's `dead_stores_eliminated` ledger: stores its kernels no longer
/// run. `fuse_steps` merges ops without dropping stores, so the count is
/// invariant under step fusion.
fn store_count(ops: &[PlanOp]) -> usize {
    ops.iter()
        .map(|op| match op {
            PlanOp::BitStep(step) => 3 + usize::from(step.carry_out),
            PlanOp::SearchOne { .. } => 1,
            PlanOp::Step { nwrites, .. } => 1 + *nwrites as usize,
            PlanOp::Search { probes, .. } => usize::from(*probes),
            PlanOp::UpdateOne { .. } => 1,
            PlanOp::UpdateTwo { .. } => 2,
            PlanOp::Update { n, .. } => usize::from(*n),
            PlanOp::Write { .. } => 1,
            PlanOp::TagCombine { .. } => 1,
            PlanOp::Read { .. } | PlanOp::ReduceTags { .. } => 0,
        })
        .sum()
}

/// Backward liveness over the three per-subarray register files the
/// window can observe: row cells, tags, and accumulators. A register is
/// *covered* when a later op in the window fully rewrites its active
/// lanes with nothing reading it in between.
struct Liveness {
    rows: [[bool; TOTAL_ROWS]; SUBARRAYS_PER_CHAIN],
    tags: [bool; SUBARRAYS_PER_CHAIN],
    acc: [bool; SUBARRAYS_PER_CHAIN],
}

impl Liveness {
    fn new() -> Self {
        Self {
            rows: [[false; TOTAL_ROWS]; SUBARRAYS_PER_CHAIN],
            tags: [false; SUBARRAYS_PER_CHAIN],
            acc: [false; SUBARRAYS_PER_CHAIN],
        }
    }

    fn reg_mut(&mut self, dest: TagDest, sub: u8) -> &mut bool {
        match dest {
            TagDest::Tags => &mut self.tags[sub as usize],
            TagDest::Acc => &mut self.acc[sub as usize],
        }
    }

    fn uncover_probe(&mut self, p: &PlanProbe) {
        for k in 0..p.nkeys as usize {
            self.rows[p.subarray as usize][p.rows[k] as usize] = false;
        }
    }

    /// Reverse-order visit of one row write: `None` when covered. A kept
    /// tag/acc-selected write reads its source register, pinning earlier
    /// match stores to it.
    fn visit_write(&mut self, w: PlanWrite) -> Option<PlanWrite> {
        let cell = &mut self.rows[w.subarray as usize][w.row as usize];
        if *cell {
            return None;
        }
        match w.sel {
            0 => *cell = true,
            1 => self.tags[w.src as usize] = false,
            _ => self.acc[w.src as usize] = false,
        }
        Some(w)
    }

    /// Reverse-order visit of one search's match store into
    /// `dest[sub]`. Returns `true` when the store is dead: a later op
    /// fully rewrites the register's active lanes and nothing read it in
    /// between — every tag/acc mutation is confined to active lanes, so
    /// final register state is unaffected. A surviving `Set` store
    /// covers earlier stores; surviving `And`/`Or` stores read the
    /// register they blend into.
    fn visit_store(&mut self, dest: TagDest, mode: TagMode, sub: u8) -> bool {
        let reg = self.reg_mut(dest, sub);
        if *reg {
            return true;
        }
        *reg = mode == TagMode::Set;
        false
    }
}

/// Dead-store elimination across a fusion window, over row cells, tags
/// and accumulators.
///
/// A store whose every written lane is overwritten by a later store in
/// the same window — with nothing reading the register in between —
/// cannot affect final state, and final state is the only thing the
/// next window can observe. Coverage is decidable statically because
/// the active window cannot change inside a fused program (an effective
/// `vsetvli` is a fusion barrier) and every store is confined to active
/// lanes: `plan_write` masks tag/acc selectors with `win`,
/// `PlanOp::Write` masks with `mask & win`, and tag/acc mutations (`Set`
/// latch, `And`/`Or` blend) touch active lanes only. So a later
/// `ColSel::Window` write (`sel == 0`) or a raw row write with a full
/// mask covers *any* earlier write to the same `(subarray, row)`, and a
/// later `Set`-mode match store or tag transfer covers earlier stores to
/// its register.
///
/// Walks the plan backwards with a per-register "covered" latch; probe
/// key rows, gate rows, `PlanOp::Read`s, tag/acc-selected writes,
/// reductions and `And`/`Or` blends clear it. A search whose only effect
/// is a covered match store is dropped whole — and with it the probe
/// reads it performed, so row coverage cascades through it. A
/// [`PlanOp::Step`] whose match store is covered but whose row writes
/// survive demotes to the bare update, and vice versa. A
/// [`PlanOp::BitStep`] is kept or dropped whole: it is dead when its
/// destination row, its carry-out row and both latches of its subarray
/// are covered. The op list (and thus recorded stats, sync points, and
/// modeled cycles/energy) is untouched — this shrinks host broadcast work
/// only.
///
/// Works in place: the kept ops, and a general update's surviving
/// writes inside its own table range, are packed in order against the
/// end of their slice as the walk goes.
fn dead_store_eliminate_tagged(plan: &mut Plan) {
    let mut ops = std::mem::take(&mut plan.ops);
    let mut live = Liveness::new();
    let start = retain_backwards(&mut ops, |op| live.visit(op, plan));
    ops.drain(..start);
    plan.ops = ops;
}

/// Visits `items` last to first and packs each value `visit` keeps
/// against the end of the slice, in their original order. Returns where
/// the kept run starts. A kept value never lands before the slot it was
/// read from, so nothing is overwritten before it is visited.
fn retain_backwards<T: Copy>(items: &mut [T], mut visit: impl FnMut(T) -> Option<T>) -> usize {
    let mut start = items.len();
    for i in (0..items.len()).rev() {
        if let Some(kept) = visit(items[i]) {
            start -= 1;
            items[start] = kept;
        }
    }
    start
}

impl Liveness {
    /// Reverse-order visit of one plan op of `plan`: the op that still
    /// has to run (possibly demoted), or `None` when all it does is
    /// covered.
    fn visit(&mut self, op: PlanOp, plan: &mut Plan) -> Option<PlanOp> {
        match op {
            PlanOp::BitStep(step) => {
                let s = usize::from(step.s);
                let carry_out = step.carry_out.then_some(Cell {
                    sub: step.s + 1,
                    row: step.c,
                });
                // Dead when everything it stores is covered.
                let rows = &mut self.rows;
                let covered = rows[s][usize::from(step.d)]
                    && carry_out.is_none_or(|co| rows[usize::from(co.sub)][usize::from(co.row)])
                    && self.tags[s]
                    && self.acc[s];
                if covered {
                    return None;
                }
                // A kept step rewrites both latches in every live lane
                // and reads neither; it reads or partly writes each cell.
                self.tags[s] = true;
                self.acc[s] = true;
                let addend = match step.addend {
                    Addend::Cell(cell) => Some(cell),
                    Addend::Const(_) => None,
                };
                let own = |row| Some(Cell { sub: step.s, row });
                let gates = step.gates.map(|g| g.map(|(cell, _)| cell));
                for cell in [own(step.d), own(step.c), carry_out, addend]
                    .into_iter()
                    .chain(gates)
                    .flatten()
                {
                    rows[usize::from(cell.sub)][usize::from(cell.row)] = false;
                }
                Some(op)
            }
            PlanOp::UpdateOne { write } => self
                .visit_write(write)
                .map(|w| PlanOp::UpdateOne { write: w }),
            PlanOp::UpdateTwo { writes } => {
                let b = self.visit_write(writes[1]);
                let a = self.visit_write(writes[0]);
                match (a, b) {
                    (Some(a), Some(b)) => Some(PlanOp::UpdateTwo { writes: [a, b] }),
                    (Some(w), None) | (None, Some(w)) => Some(PlanOp::UpdateOne { write: w }),
                    (None, None) => None,
                }
            }
            PlanOp::Update { at, n } => {
                let writes = &mut plan.writes[at as usize..][..usize::from(n)];
                let start = retain_backwards(writes, |w| self.visit_write(w));
                match writes[start..] {
                    [] => None,
                    [w] => Some(PlanOp::UpdateOne { write: w }),
                    [a, b] => Some(PlanOp::UpdateTwo { writes: [a, b] }),
                    _ => Some(PlanOp::Update {
                        at: at + table_offset(start),
                        n: n - operand_count(start),
                    }),
                }
            }
            PlanOp::Write {
                subarray,
                row,
                mask,
                ..
            } => {
                let cell = &mut self.rows[subarray as usize][row as usize];
                if *cell {
                    return None;
                }
                if mask == u32::MAX {
                    *cell = true;
                }
                Some(op)
            }
            PlanOp::Step {
                probe,
                dest,
                mode,
                nwrites,
                writes,
            } => {
                // Temporal order inside a step is search, then writes:
                // visit the writes first (they may read the tags the
                // search itself latched, pinning it), then the match
                // store, then the probe's key-row reads.
                let b = (nwrites == 2)
                    .then(|| self.visit_write(writes[1]))
                    .flatten();
                let a = self.visit_write(writes[0]);
                let store_dead = self.visit_store(dest, mode, probe.subarray);
                let mut surviving = [writes[0]; 2];
                let mut n = 0u8;
                for w in [a, b].into_iter().flatten() {
                    surviving[n as usize] = w;
                    n += 1;
                }
                match (store_dead, n) {
                    (true, 0) => None,
                    (true, 1) => Some(PlanOp::UpdateOne {
                        write: surviving[0],
                    }),
                    (true, _) => Some(PlanOp::UpdateTwo { writes: surviving }),
                    (false, 0) => {
                        self.uncover_probe(&probe);
                        Some(PlanOp::SearchOne { probe, dest, mode })
                    }
                    (false, n) => {
                        self.uncover_probe(&probe);
                        Some(PlanOp::Step {
                            probe,
                            dest,
                            mode,
                            nwrites: n,
                            writes: surviving,
                        })
                    }
                }
            }
            PlanOp::SearchOne { probe, dest, mode } => {
                if self.visit_store(dest, mode, probe.subarray) {
                    return None;
                }
                self.uncover_probe(&probe);
                Some(op)
            }
            PlanOp::Search {
                at,
                probes,
                gates,
                dest,
                mode,
            } => {
                // Per-probe match stores land in the probe's own
                // subarray; the op is dead only when every one is
                // covered. A kept op executes all of them, so visit
                // each (latching `Set` coverage, unpinning `And`/`Or`
                // reads) and then uncover every probed row.
                let (probes, gates) = plan.search(at, probes, gates);
                if probes.iter().all(|p| *self.reg_mut(dest, p.subarray)) {
                    return None;
                }
                for p in probes {
                    self.visit_store(dest, mode, p.subarray);
                }
                for p in probes.iter().chain(gates) {
                    self.uncover_probe(p);
                }
                Some(op)
            }
            PlanOp::Read { subarray, row } => {
                self.rows[subarray as usize][row as usize] = false;
                Some(op)
            }
            PlanOp::ReduceTags { subarray } => {
                self.tags[subarray as usize] = false;
                Some(op)
            }
            PlanOp::TagCombine { src, dst, op: mode } => {
                if self.tags[dst as usize] {
                    return None;
                }
                self.tags[dst as usize] = mode == TagMode::Set;
                self.tags[src as usize] = false;
                Some(op)
            }
        }
    }
}

impl Plan {
    /// Lowers one microop, appending a general search's probes or a
    /// general update's writes to the tables, and runs its structural
    /// validation once.
    fn lower_op(&mut self, op: &MicroOp) -> PlanOp {
        match op {
            MicroOp::Search {
                probes,
                gates,
                dest,
                mode,
            } => {
                if gates.is_empty() && probes.len() == 1 {
                    PlanOp::SearchOne {
                        probe: lower_probe(&probes[0]),
                        dest: *dest,
                        mode: *mode,
                    }
                } else {
                    let at = table_offset(self.probes.len());
                    self.probes
                        .extend(probes.iter().chain(gates).map(lower_probe));
                    PlanOp::Search {
                        at,
                        probes: operand_count(probes.len()),
                        gates: operand_count(gates.len()),
                        dest: *dest,
                        mode: *mode,
                    }
                }
            }
            MicroOp::Update { writes } => {
                let mut seen = 0u32;
                for w in writes {
                    assert!(
                        w.subarray < SUBARRAYS_PER_CHAIN,
                        "subarray {} out of range",
                        w.subarray
                    );
                    let bit = 1u32 << w.subarray;
                    assert!(
                        seen & bit == 0,
                        "update writes two rows of subarray {}",
                        w.subarray
                    );
                    seen |= bit;
                    assert!(w.row < TOTAL_ROWS, "row {} out of range", w.row);
                    self.written_rows |= 1 << w.row;
                }
                match writes.as_slice() {
                    [w] => PlanOp::UpdateOne {
                        write: lower_write(w),
                    },
                    [a, b] => PlanOp::UpdateTwo {
                        writes: [lower_write(a), lower_write(b)],
                    },
                    ws => {
                        let at = table_offset(self.writes.len());
                        self.writes.extend(ws.iter().map(lower_write));
                        PlanOp::Update {
                            at,
                            n: operand_count(ws.len()),
                        }
                    }
                }
            }
            MicroOp::Read { subarray, row } => {
                assert!(*row < TOTAL_ROWS, "row {row} out of range");
                PlanOp::Read {
                    subarray: check_index(*subarray),
                    row: *row as u8,
                }
            }
            MicroOp::Write {
                subarray,
                row,
                data,
                mask,
            } => {
                assert!(*row < TOTAL_ROWS, "row {row} out of range");
                self.written_rows |= 1 << row;
                PlanOp::Write {
                    subarray: check_index(*subarray),
                    row: *row as u8,
                    data: *data,
                    mask: *mask,
                }
            }
            MicroOp::ReduceTags { subarray } => {
                self.reduces += 1;
                PlanOp::ReduceTags {
                    subarray: check_index(*subarray),
                }
            }
            MicroOp::TagCombine { src, dst, op } => PlanOp::TagCombine {
                src: check_index(*src),
                dst: check_index(*dst),
                op: *op,
            },
        }
    }
}

/// A compiled, immutable microop sequence executed as one broadcast unit.
///
/// The op list and the lowered broadcast plan are reference-counted, so
/// a cached program can be handed to every pool worker without
/// deep-copying microops. The op list is held as shared handles to the
/// op lists it was built from — one for [`MicroProgram::new`], one per
/// part for a [`MicroProgram::windowed`] fusion window — so a window
/// shares its microops with its parts instead of copying them.
///
/// Every program holds one plan, the one its kernels run: lowered,
/// step-fused and with its bit-steps derived once, when the instruction
/// compiles. A window builds its plan from its parts' plans.
///
/// Equality is by content: the op sequence, the plan (with its table
/// entries resolved, see `Plan`), the sync points and the dead-store
/// count.
#[derive(Debug, Clone)]
pub struct MicroProgram {
    ops: Arc<[Arc<Vec<MicroOp>>]>,
    plan: Arc<Plan>,
    sync_points: Vec<SyncPoint>,
    /// Stores the window peephole passes removed from the broadcast
    /// plan relative to plain concatenation — compile-time metadata, so
    /// cached windows keep reporting their win on every execution.
    dead_stores: u32,
    /// The op list's classification, computed once here.
    stats: MicroOpStats,
}

impl PartialEq for MicroProgram {
    fn eq(&self, other: &Self) -> bool {
        self.dead_stores == other.dead_stores
            && self.sync_points == other.sync_points
            && self.plan == other.plan
            && self.ops().eq(other.ops())
    }
}

impl Eq for MicroProgram {}

impl MicroProgram {
    /// Wraps an op sequence, locating its sync points and lowering the ops
    /// into the dense plan the broadcast executor runs: step fusion, then
    /// every run of ops the exhaustive check proves to be one truth-table
    /// bit-step becomes one op. This is the only place a plan is lowered
    /// or its bit-steps derived.
    pub fn new(ops: Vec<MicroOp>) -> Self {
        let sync_points = ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                MicroOp::ReduceTags { .. } => Some(SyncPoint {
                    op_index: i,
                    kind: SyncKind::Reduce,
                }),
                MicroOp::Read { .. } => Some(SyncPoint {
                    op_index: i,
                    kind: SyncKind::Read,
                }),
                _ => None,
            })
            .collect();
        let mut plan = Plan::lower(&ops);
        fuse_steps(&mut plan.ops);
        let mut stats = MicroOpStats::new();
        for op in &ops {
            let (kind, bp) = op.classify();
            stats.record(kind, bp);
        }
        Self {
            ops: Arc::new([Arc::new(ops)]),
            plan: Arc::new(bitstep::derive(plan)),
            sync_points,
            dead_stores: 0,
            stats,
        }
    }

    /// Compiles a *fusion window*: several instructions' programs
    /// concatenated in issue order into one broadcast unit executed with
    /// a single fan-out/fan-in.
    ///
    /// The window is built from what its parts already compiled; no
    /// microop is copied or lowered again and no bit-step is derived
    /// again. The parts' plans are concatenated — their ops and side
    /// tables copied end to end, table offsets shifted, nothing allocated
    /// per op — and step fusion runs over the result. Each part's plan is
    /// already step-fused inside, so this only fuses the seams (an op
    /// ending in a search with a successor's opening update).
    /// The cross-op peephole passes then run over the whole window:
    /// adjacent [`MicroOp::TagCombine`] dedup and dead-store elimination
    /// over rows, tags and accumulators (an intermediate `vd` or mask
    /// fully rewritten later in the window, unread in between, is never
    /// materialized), both in place. The passes only merge and drop ops,
    /// and a bit-step is kept or dropped whole, so a window never runs
    /// more plan ops than its parts.
    ///
    /// The *op* list is the unoptimized concatenation, held as shared
    /// handles to the parts' lists. Stats, sync points and written rows
    /// are merged from the parts: stats add up, sync points shift by the
    /// ops before their part, written-row masks OR together. So recorded
    /// [`MicroOpStats`] — and everything derived from them (modeled
    /// cycles and energy) — are identical to running the parts one at a
    /// time; only the host broadcast plan shrinks, and the written-row
    /// mask still covers every row it writes.
    pub fn windowed(parts: &[&MicroProgram]) -> Self {
        let mut plan = Plan::concat(parts.iter().map(|p| &*p.plan));
        fuse_steps(&mut plan.ops);
        let before = store_count(&plan.ops);
        dedup_tag_combines(&mut plan.ops);
        dead_store_eliminate_tagged(&mut plan);
        let mut fused = Self {
            ops: parts.iter().flat_map(|p| p.ops.iter().cloned()).collect(),
            dead_stores: (before - store_count(&plan.ops)) as u32,
            plan: Arc::new(plan),
            sync_points: Vec::new(),
            stats: MicroOpStats::new(),
        };
        let mut base = 0;
        for p in parts {
            fused
                .sync_points
                .extend(p.sync_points.iter().map(|s| SyncPoint {
                    op_index: base + s.op_index,
                    kind: s.kind,
                }));
            fused.stats.merge(&p.stats);
            base += p.len();
        }
        fused
    }

    /// Stores the window peephole passes eliminated from this program's
    /// broadcast plan (row writes, search match stores, tag-bus
    /// transfers) relative to plain per-op concatenation. Zero for
    /// single-instruction programs.
    pub fn dead_stores(&self) -> u32 {
        self.dead_stores
    }

    /// The rows this program may write, as a bit mask over row indices
    /// (see [`Csb`](crate::Csb)'s live-row mask): the plan's
    /// `written_rows`, which for a window is the OR of its parts'.
    pub(crate) fn written_rows(&self) -> u64 {
        self.plan.written_rows
    }

    /// The microops in broadcast order. A window yields its parts' ops
    /// themselves, part after part, not copies of them.
    pub fn ops(&self) -> impl Iterator<Item = &MicroOp> + '_ {
        self.ops.iter().flat_map(|part| part.iter())
    }

    /// The statistics ledger one broadcast of this program charges,
    /// computed statically from the op list (microop classification is
    /// data-independent). This is what lets an instruction's modeled
    /// time and energy be charged at issue while its broadcast is
    /// deferred into a fusion window: the deferred execution records
    /// exactly these stats. Classified once, when the program is built.
    pub fn stats(&self) -> MicroOpStats {
        self.stats
    }

    /// Number of microops.
    pub fn len(&self) -> usize {
        self.ops.iter().map(|part| part.len()).sum()
    }

    /// True when the program contains no microops (e.g. `vid.v`, which is
    /// modeled functionally).
    pub fn is_empty(&self) -> bool {
        self.ops.iter().all(|part| part.is_empty())
    }

    /// The result-producing microops, in program order.
    pub fn sync_points(&self) -> &[SyncPoint] {
        &self.sync_points
    }

    /// Number of reduction sync points — the length of the sum vector
    /// [`Csb::execute_program`](crate::Csb::execute_program) returns.
    pub fn reduce_count(&self) -> usize {
        self.plan.reduces
    }

    /// Number of ops the kernels run per broadcast: [`Self::len`] minus
    /// the microops merged by step fusion and bit-step derivation and, for
    /// windows, the ops the cross-op peephole passes dropped. A `vmul.vv`
    /// at SEW 32 runs 561 for its 4 225 microops, a `vadd.vv` 36 for 259.
    /// A window never runs more than its parts together.
    pub fn plan_len(&self) -> usize {
        self.plan.ops.len()
    }

    /// Number of truth-table bit-steps the kernels run as one plan op
    /// each ([`Self::plan_len`] counts each as one): 32 for a `vadd.vv`
    /// at SEW 32, 528 for a `vmul.vv`.
    pub fn bit_steps(&self) -> usize {
        self.plan
            .ops
            .iter()
            .filter(|op| matches!(op, PlanOp::BitStep(_)))
            .count()
    }

    /// The plan the kernels run, shared: handing it to a pool worker
    /// copies a handle, not the plan.
    pub(crate) fn plan(&self) -> &Arc<Plan> {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstep::tests::{assert_matches_oracle, Spec, A, D, G};
    use crate::microop::{Probe, TagDest, TagMode};
    use crate::subarray::ROW_CARRY;

    #[test]
    fn sync_points_locate_reduces_and_reads() {
        let prog = MicroProgram::new(vec![
            MicroOp::Search {
                probes: vec![Probe::row(0, 1, true)],
                gates: vec![],
                dest: TagDest::Tags,
                mode: TagMode::Set,
            },
            MicroOp::ReduceTags { subarray: 0 },
            MicroOp::Read {
                subarray: 0,
                row: 1,
            },
            MicroOp::ReduceTags { subarray: 1 },
        ]);
        assert_eq!(prog.len(), 4);
        assert_eq!(prog.reduce_count(), 2);
        assert_eq!(
            prog.sync_points(),
            &[
                SyncPoint {
                    op_index: 1,
                    kind: SyncKind::Reduce
                },
                SyncPoint {
                    op_index: 2,
                    kind: SyncKind::Read
                },
                SyncPoint {
                    op_index: 3,
                    kind: SyncKind::Reduce
                },
            ]
        );
    }

    #[test]
    fn empty_program() {
        let prog = MicroProgram::new(vec![]);
        assert!(prog.is_empty());
        assert_eq!(prog.reduce_count(), 0);
    }

    fn search1(sub: usize, row: usize) -> MicroOp {
        MicroOp::Search {
            probes: vec![Probe::row(sub, row, true)],
            gates: vec![],
            dest: TagDest::Tags,
            mode: TagMode::Set,
        }
    }

    fn upd1(sub: usize, row: usize, value: bool) -> MicroOp {
        MicroOp::Update {
            writes: vec![WriteSpec {
                subarray: sub,
                row,
                value,
                cols: crate::microop::ColSel::Window,
            }],
        }
    }

    #[test]
    fn windowed_fuses_steps_across_op_seams() {
        let a = MicroProgram::new(vec![search1(0, 1)]);
        let b = MicroProgram::new(vec![upd1(0, 2, true)]);
        assert!(matches!(a.plan().ops[0], PlanOp::SearchOne { .. }));
        assert!(matches!(b.plan().ops[0], PlanOp::UpdateOne { .. }));
        let fused = MicroProgram::windowed(&[&a, &b]);
        assert_eq!(fused.len(), 2, "op list is the plain concatenation");
        assert_eq!(fused.plan_len(), 1, "seam search+update fuse to a step");
        assert!(matches!(
            fused.plan().ops[0],
            PlanOp::Step { nwrites: 1, .. }
        ));
    }

    #[test]
    fn windowed_collapses_adjacent_identical_tag_combines() {
        let tc = MicroOp::TagCombine {
            src: 3,
            dst: 4,
            op: TagMode::Or,
        };
        let a = MicroProgram::new(vec![tc.clone()]);
        let b = MicroProgram::new(vec![tc.clone(), tc]);
        let fused = MicroProgram::windowed(&[&a, &b]);
        assert_eq!(fused.len(), 3);
        assert_eq!(fused.plan_len(), 1, "idempotent transfer deduped");
    }

    #[test]
    fn windowed_eliminates_covered_dead_stores() {
        // Op k materializes (5, 3); op k+1 fully rewrites it with the
        // window unchanged and nothing reading it in between.
        let a = MicroProgram::new(vec![upd1(5, 3, true)]);
        let b = MicroProgram::new(vec![upd1(5, 3, false)]);
        let fused = MicroProgram::windowed(&[&a, &b]);
        assert_eq!(fused.len(), 2, "stats still charge both updates");
        assert_eq!(fused.plan_len(), 1, "first store is dead");
        assert!(
            matches!(
                fused.plan().ops[0],
                PlanOp::UpdateOne { write } if !write.value
            ),
            "the surviving store is the later one"
        );
    }

    #[test]
    fn intervening_read_blocks_dead_store_elimination() {
        let a = MicroProgram::new(vec![
            upd1(5, 3, true),
            MicroOp::Read {
                subarray: 5,
                row: 3,
            },
        ]);
        let b = MicroProgram::new(vec![upd1(5, 3, false)]);
        let fused = MicroProgram::windowed(&[&a, &b]);
        assert_eq!(fused.plan_len(), 3, "read pins the earlier store");
    }

    #[test]
    fn intervening_probe_blocks_dead_store_elimination() {
        let a = MicroProgram::new(vec![upd1(5, 3, true)]);
        let probe = MicroProgram::new(vec![search1(5, 3)]);
        let b = MicroProgram::new(vec![upd1(5, 3, false)]);
        let fused = MicroProgram::windowed(&[&a, &probe, &b]);
        // The probe fuses with the trailing update into a step, but the
        // first store must survive: the search reads the row.
        let writes: usize = fused
            .plan()
            .ops
            .iter()
            .map(|p| match p {
                PlanOp::UpdateOne { .. } => 1,
                PlanOp::Step { nwrites, .. } => *nwrites as usize,
                _ => 0,
            })
            .sum();
        assert_eq!(writes, 2, "both stores execute");
    }

    #[test]
    fn tag_selected_store_is_dead_under_full_window_rewrite() {
        let a = MicroProgram::new(vec![MicroOp::Update {
            writes: vec![WriteSpec {
                subarray: 7,
                row: 0,
                value: true,
                cols: crate::microop::ColSel::Tags(7),
            }],
        }]);
        let b = MicroProgram::new(vec![upd1(7, 0, false)]);
        let fused = MicroProgram::windowed(&[&a, &b]);
        assert_eq!(
            fused.plan_len(),
            1,
            "tag-selected columns are a subset of the window"
        );
    }

    #[test]
    fn scheduled_window_retires_orphaned_searches() {
        // Op A is a fused search/update step; op B kills A's row write
        // (full-window rewrite, nothing reading in between); op C's
        // `Set`-mode search overwrites A's match store. A row-only pass
        // would strip A down to an orphaned search — the liveness
        // cascade sees its match store is covered too and drops the
        // whole step.
        let a = MicroProgram::new(vec![search1(5, 3), upd1(5, 4, true)]);
        let b = MicroProgram::new(vec![upd1(5, 4, false)]);
        let c = MicroProgram::new(vec![search1(5, 10)]);
        let fused = MicroProgram::windowed(&[&a, &b, &c]);
        assert_eq!(fused.plan_len(), 2, "cascade drops the orphaned search");
        assert_eq!(fused.dead_stores(), 2, "row write and match store retired");
        assert_eq!(
            fused.len(),
            4,
            "op list stays the issue-order concatenation"
        );
    }

    #[test]
    fn covered_tag_combine_is_dead_in_the_scheduled_pipeline() {
        // Two *different* Set-mode transfers into tags[9]: adjacency
        // dedup cannot touch them, but the later one fully rewrites the
        // destination with nothing reading it in between.
        let tc = |src: usize| MicroOp::TagCombine {
            src,
            dst: 9,
            op: TagMode::Set,
        };
        let a = MicroProgram::new(vec![tc(2)]);
        let b = MicroProgram::new(vec![tc(4)]);
        let fused = MicroProgram::windowed(&[&a, &b]);
        assert_eq!(fused.plan_len(), 1, "covered transfer retired");
        assert_eq!(fused.dead_stores(), 1);
    }

    #[test]
    fn reduce_pins_the_match_store_it_reads() {
        // search -> reduce -> search: the reduction reads tags[3], so
        // the first match store must survive the dead-store pass.
        let parts = [
            MicroProgram::new(vec![search1(3, 1)]),
            MicroProgram::new(vec![MicroOp::ReduceTags { subarray: 3 }]),
            MicroProgram::new(vec![search1(3, 2)]),
        ];
        let refs: Vec<&MicroProgram> = parts.iter().collect();
        let fused = MicroProgram::windowed(&refs);
        assert_eq!(fused.plan_len(), 3, "reduce pins the earlier search");
        assert_eq!(fused.dead_stores(), 0);
    }

    #[test]
    fn tag_selected_write_pins_its_source_register() {
        // search Set tags[6], then a row write selecting tags[6], then a
        // covering search: the sel=1 write reads the first match store,
        // so only stores *after* the read may be treated as covered.
        let sel_write = MicroOp::Update {
            writes: vec![WriteSpec {
                subarray: 6,
                row: 8,
                value: true,
                cols: crate::microop::ColSel::Tags(6),
            }],
        };
        let parts = [
            MicroProgram::new(vec![search1(6, 1)]),
            MicroProgram::new(vec![sel_write]),
            MicroProgram::new(vec![search1(6, 2)]),
        ];
        let refs: Vec<&MicroProgram> = parts.iter().collect();
        let fused = MicroProgram::windowed(&refs);
        // Seam step-fusion merges the first search with the selected
        // write; the liveness pass must retire nothing, because that
        // write reads the match store the later search would otherwise
        // cover.
        assert_eq!(fused.dead_stores(), 0, "the selected write pins the search");
        assert_eq!(fused.plan_len(), 2);
    }

    #[test]
    fn plan_equality_resolves_table_offsets() {
        // The window's first general search is dead and its general
        // update loses a covered write, which leaves table entries no op
        // references and shifts the surviving ops' offsets. The plan
        // still equals the one lowered without them.
        let search = |row| MicroOp::Search {
            probes: vec![Probe::row(2, row, true), Probe::row(3, row, true)],
            gates: vec![],
            dest: TagDest::Tags,
            mode: TagMode::Set,
        };
        let update = |subs: &[usize]| MicroOp::Update {
            writes: subs
                .iter()
                .map(|&subarray| WriteSpec {
                    subarray,
                    row: 3,
                    value: true,
                    cols: crate::microop::ColSel::Window,
                })
                .collect(),
        };
        let parts = [
            MicroProgram::new(vec![search(1), update(&[0, 1, 2, 3])]),
            MicroProgram::new(vec![search(5), upd1(1, 3, false)]),
        ];
        let window = MicroProgram::windowed(&[&parts[0], &parts[1]]);
        let lean = MicroProgram::new(vec![update(&[0, 2, 3]), search(5), upd1(1, 3, false)]);
        assert_eq!(
            window.dead_stores(),
            3,
            "a search's two stores and one write"
        );
        assert_eq!(window.plan(), lean.plan());
        assert_ne!(window.plan().ops, lean.plan().ops, "offsets differ");
    }

    #[test]
    fn single_instruction_programs_report_no_dead_stores() {
        let prog = MicroProgram::new(vec![search1(0, 1), upd1(0, 2, true)]);
        assert_eq!(prog.dead_stores(), 0);
    }

    /// The adder bit-step of subarray 4 with a gate in subarray 2: it
    /// reads rows `D`, `ROW_CARRY` and `A` of subarray 4 and row `G` of
    /// subarray 2, and writes row `D` of 4, `ROW_CARRY` of 5 and both
    /// latches of 4.
    const STEP: Spec = Spec {
        s: 4,
        a_sub: 4,
        gate: Some(2),
        carry_out: true,
    };

    /// A `Set` search of row `G` of subarray 4 into `dest`: it covers that
    /// latch of the step's subarray and reads no cell of the step.
    fn latch(dest: TagDest) -> MicroOp {
        MicroOp::Search {
            probes: vec![Probe::row(4, G, true)],
            gates: vec![],
            dest,
            mode: TagMode::Set,
        }
    }

    /// The window of `before`, [`STEP`] and `after`, checked against the
    /// scalar chains on full and partial windows.
    fn window_around_step(before: Vec<MicroOp>, after: Vec<MicroOp>) -> MicroProgram {
        let step = MicroProgram::new(STEP.ops());
        assert_eq!(step.bit_steps(), 1);
        let ops: Vec<MicroOp> = before
            .iter()
            .chain(&STEP.ops())
            .chain(&after)
            .cloned()
            .collect();
        let parts = [MicroProgram::new(before), step, MicroProgram::new(after)];
        let window = MicroProgram::windowed(&[&parts[0], &parts[1], &parts[2]]);
        assert_matches_oracle(&window, &ops);
        window
    }

    /// Writes covering the step's destination and carry-out rows.
    fn cover_rows() -> Vec<MicroOp> {
        vec![upd1(4, D, false), upd1(5, ROW_CARRY, true)]
    }

    #[test]
    fn a_bit_step_whose_accumulator_is_live_is_kept() {
        let mut after = cover_rows();
        after.push(latch(TagDest::Tags));
        let window = window_around_step(vec![], after);
        assert_eq!((window.bit_steps(), window.dead_stores()), (1, 0));
    }

    #[test]
    fn a_bit_step_whose_tags_are_live_is_kept() {
        let mut after = cover_rows();
        after.push(latch(TagDest::Acc));
        let window = window_around_step(vec![], after);
        assert_eq!((window.bit_steps(), window.dead_stores()), (1, 0));
    }

    #[test]
    fn a_bit_step_with_every_output_covered_is_dropped_whole() {
        let mut after = cover_rows();
        after.extend([latch(TagDest::Tags), latch(TagDest::Acc)]);
        let window = window_around_step(vec![], after);
        assert_eq!(window.bit_steps(), 0);
        assert_eq!(window.plan_len(), 4, "the two writes and two searches");
        assert_eq!(
            window.dead_stores(),
            4,
            "destination, carry-out and both latches"
        );
    }

    #[test]
    fn a_kept_bit_step_covers_both_latches_of_its_subarray() {
        let window = window_around_step(vec![latch(TagDest::Tags), latch(TagDest::Acc)], vec![]);
        assert_eq!(window.plan_len(), 1, "only the step runs");
        assert_eq!(window.dead_stores(), 2, "both searches are dead");
    }

    #[test]
    fn a_kept_bit_step_pins_every_row_it_reads() {
        // Every cell the step reads is written before it and again after
        // it. The later writes cover those rows, but the kept step reads
        // them, so no earlier write may be dropped.
        let cells = [(4, D), (4, ROW_CARRY), (4, A), (2, G)];
        let writes = |value| cells.map(|(sub, row)| upd1(sub, row, value)).to_vec();
        let window = window_around_step(writes(true), writes(false));
        assert_eq!(window.bit_steps(), 1);
        assert_eq!(window.plan_len(), 9);
        assert_eq!(window.dead_stores(), 0);
    }

    #[test]
    fn window_ops_are_its_parts_ops_not_copies() {
        let parts = [
            MicroProgram::new(vec![search1(0, 1), upd1(0, 2, true)]),
            MicroProgram::new(vec![]),
            MicroProgram::new(vec![upd1(1, 3, false), MicroOp::ReduceTags { subarray: 1 }]),
        ];
        let refs: Vec<&MicroProgram> = parts.iter().collect();
        let fused = MicroProgram::windowed(&refs);
        let mut part_ops = parts.iter().flat_map(|p| p.ops());
        for w in fused.ops() {
            let p = part_ops.next().expect("window yields no extra ops");
            assert!(std::ptr::eq(w, p), "window copied {w:?}");
        }
        assert!(part_ops.next().is_none(), "window yields every op");
    }

    #[test]
    fn static_stats_mirror_the_live_classification() {
        let prog = MicroProgram::new(vec![
            search1(0, 1),
            upd1(1, 2, true),
            MicroOp::Update {
                writes: vec![WriteSpec {
                    subarray: 2,
                    row: 0,
                    value: true,
                    cols: crate::microop::ColSel::Tags(1),
                }],
            },
            MicroOp::ReduceTags { subarray: 0 },
            MicroOp::TagCombine {
                src: 0,
                dst: 1,
                op: TagMode::And,
            },
        ]);
        let s = prog.stats();
        assert_eq!(s.searches_bs, 1);
        assert_eq!(s.updates_bs, 1);
        assert_eq!(s.updates_prop, 1);
        assert_eq!(s.reduces, 1);
        assert_eq!(s.tag_combines, 1);
        assert_eq!(s.total(), 5);
    }
}

/// Property test: the whole fusion pipeline — `fuse_steps` across seams
/// plus the cross-op peephole passes — is semantics-preserving on
/// *arbitrary* generated op sequences, not just the shapes today's
/// instruction lowerings emit. One concatenated program and a fused
/// window split at arbitrary instruction boundaries must both agree bit
/// for bit with the scalar [`Chain`](crate::Chain) oracle in final
/// per-chain state and reduction sums, and record the op list's stats.
#[cfg(test)]
mod window_properties {
    use super::*;
    use crate::chain::Chain;
    use crate::csb::{scalar_reference, Csb};
    use crate::geometry::CsbGeometry;
    use crate::microop::ColSel;
    use proptest::prelude::*;

    const CHAINS: usize = 8;

    fn seeded_csb(vstart_raw: usize, vl_raw: usize) -> Csb {
        let mut csb = Csb::new(CsbGeometry::new(CHAINS));
        for i in 0..CHAINS {
            for sub in 0..SUBARRAYS_PER_CHAIN {
                let x = (i * 131 + sub * 7919 + 17) as u32;
                csb.write_chain_row(i, sub, sub % TOTAL_ROWS, x.wrapping_mul(0x9E37), u32::MAX);
                csb.set_chain_tags(i, sub, x.wrapping_mul(0x85EB).rotate_left(sub as u32));
                csb.set_chain_acc(i, sub, x.wrapping_mul(0xC2B2).rotate_left(i as u32));
            }
        }
        let vl = vl_raw % (csb.max_vl() + 1);
        csb.set_active_window(vstart_raw % (vl + 1), vl);
        csb
    }

    /// A written or read `(subarray, row)` cell: anywhere half the time,
    /// one of twelve cells (subarrays 0..6, rows 0..2) otherwise, so a
    /// later window or full-mask write often covers an earlier one and
    /// the dead-store pass drops some writes of a general update while
    /// keeping three or more.
    fn arb_cell() -> impl Strategy<Value = (usize, usize)> {
        prop_oneof![
            (0..SUBARRAYS_PER_CHAIN, 0..TOTAL_ROWS),
            (0..6usize, 0..2usize),
        ]
    }

    fn arb_probe() -> impl Strategy<Value = Probe> {
        (
            0..SUBARRAYS_PER_CHAIN,
            proptest::collection::vec((0..TOTAL_ROWS, any::<bool>()), 1..=4),
        )
            .prop_map(|(s, keys)| Probe::new(s, keys))
    }

    fn arb_mode() -> impl Strategy<Value = TagMode> {
        prop_oneof![Just(TagMode::Set), Just(TagMode::And), Just(TagMode::Or)]
    }

    fn arb_dest() -> impl Strategy<Value = TagDest> {
        prop_oneof![Just(TagDest::Tags), Just(TagDest::Acc)]
    }

    /// Window writes three times in five: of an update's writes, only
    /// they cover earlier writes.
    fn arb_colsel() -> impl Strategy<Value = ColSel> {
        prop_oneof![
            Just(ColSel::Window),
            Just(ColSel::Window),
            Just(ColSel::Window),
            (0..SUBARRAYS_PER_CHAIN).prop_map(ColSel::Tags),
            (0..SUBARRAYS_PER_CHAIN).prop_map(ColSel::Acc),
        ]
    }

    fn arb_update() -> impl Strategy<Value = MicroOp> {
        proptest::collection::vec((arb_cell(), any::<bool>(), arb_colsel()), 1..=8).prop_map(
            |raw| {
                // The hardware writes at most one row per subarray per update.
                let mut seen = 0u64;
                let writes: Vec<WriteSpec> = raw
                    .into_iter()
                    .filter(|((sub, _), ..)| {
                        let bit = 1u64 << sub;
                        let fresh = seen & bit == 0;
                        seen |= bit;
                        fresh
                    })
                    .map(|((subarray, row), value, cols)| WriteSpec {
                        subarray,
                        row,
                        value,
                        cols,
                    })
                    .collect();
                MicroOp::Update { writes }
            },
        )
    }

    fn arb_op() -> impl Strategy<Value = MicroOp> {
        prop_oneof![
            (
                proptest::collection::vec(arb_probe(), 1..=3),
                proptest::collection::vec(arb_probe(), 0..=2),
                arb_dest(),
                arb_mode(),
            )
                .prop_map(|(probes, gates, dest, mode)| MicroOp::Search {
                    probes,
                    gates,
                    dest,
                    mode,
                }),
            arb_update(),
            arb_cell().prop_map(|(subarray, row)| MicroOp::Read { subarray, row }),
            (
                arb_cell(),
                any::<u32>(),
                prop_oneof![any::<u32>(), Just(u32::MAX)]
            )
                .prop_map(|((subarray, row), data, mask)| {
                    MicroOp::Write {
                        subarray,
                        row,
                        data,
                        mask,
                    }
                }),
            (0..SUBARRAYS_PER_CHAIN).prop_map(|subarray| MicroOp::ReduceTags { subarray }),
            (0..SUBARRAYS_PER_CHAIN, 0..SUBARRAYS_PER_CHAIN, arb_mode())
                .prop_map(|(src, dst, op)| MicroOp::TagCombine { src, dst, op }),
        ]
    }

    /// Runs `prog` on a freshly seeded CSB and checks it against the
    /// oracle's chains and sums, and the program's static stats.
    fn check(prog: &MicroProgram, vstart: usize, vl: usize, want: &(Vec<Chain>, Vec<u64>)) {
        let mut csb = seeded_csb(vstart, vl);
        let sums = csb.execute_program(prog);
        assert_eq!(sums, want.1, "reduction sums");
        for (c, chain) in want.0.iter().enumerate() {
            assert_eq!(&csb.chain(c), chain, "chain {c}");
        }
        assert_eq!(csb.stats(), prog.stats(), "recorded stats");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn fusion_window_preserves_semantics(
            ops in proptest::collection::vec(arb_op(), 1..16),
            cuts in proptest::collection::vec(any::<bool>(), 16),
            vstart_raw in 0usize..1024,
            vl_raw in 0usize..1024,
        ) {
            let want = scalar_reference(&seeded_csb(vstart_raw, vl_raw), &ops);
            let whole = MicroProgram::new(ops.clone());
            check(&whole, vstart_raw, vl_raw, &want);

            // Split at arbitrary "instruction" boundaries and fuse.
            let mut parts: Vec<MicroProgram> = Vec::new();
            let mut current: Vec<MicroOp> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                current.push(op.clone());
                if cuts[i % cuts.len()] {
                    parts.push(MicroProgram::new(std::mem::take(&mut current)));
                }
            }
            if !current.is_empty() {
                parts.push(MicroProgram::new(current));
            }
            let refs: Vec<&MicroProgram> = parts.iter().collect();
            let fused = MicroProgram::windowed(&refs);
            check(&fused, vstart_raw, vl_raw, &want);
            // A program's length is its stats' total and its op count,
            // whole or split.
            for p in [&whole, &fused] {
                prop_assert_eq!(p.len(), ops.len(), "len is the op count");
                prop_assert_eq!(p.len() as u64, p.stats().total(), "len is the stats' total");
            }
            prop_assert!(
                fused.plan_len() <= fused.len(),
                "fusion never grows the plan past the op list"
            );
            prop_assert!(
                fused.plan_len() <= parts.iter().map(MicroProgram::plan_len).sum(),
                "a window never runs more plan ops than its parts"
            );

            // Built from the parts' plans, the window is exactly the
            // program lowering the whole op list gives, op for op with the
            // side tables resolved.
            let reference = relowered_window(&ops);
            let (got, want) = (fused.plan(), reference.plan());
            prop_assert_eq!(got.ops.len(), want.ops.len(), "plan length");
            for (a, b) in got.ops.iter().zip(&want.ops) {
                prop_assert_eq!(got.resolve(*a), want.resolve(*b), "plan op");
            }
            prop_assert_eq!(got.reduces, want.reduces, "reductions");
            prop_assert_eq!(got, want, "plan");
            prop_assert_eq!(fused.plan_len(), reference.plan_len(), "plan length");
            prop_assert_eq!(fused.dead_stores(), reference.dead_stores(), "dead stores");
            prop_assert_eq!(fused.len(), reference.len(), "len");
            prop_assert_eq!(fused.sync_points(), reference.sync_points(), "sync points");
            prop_assert_eq!(fused.stats(), reference.stats(), "stats");
            prop_assert_eq!(fused.written_rows(), reference.written_rows(), "written rows");
            prop_assert!(fused.ops().eq(reference.ops()), "op sequence");
            prop_assert_eq!(&fused, &reference, "equality ignores the split");
        }
    }

    /// The window construction [`MicroProgram::windowed`] replaced, kept
    /// as its oracle: lower the concatenated op list from scratch and run
    /// the cross-op peepholes over the whole plan.
    fn relowered_window(ops: &[MicroOp]) -> MicroProgram {
        let mut fused = MicroProgram::new(ops.to_vec());
        let mut plan = (*fused.plan).clone();
        let before = store_count(&plan.ops);
        dedup_tag_combines(&mut plan.ops);
        dead_store_eliminate_tagged(&mut plan);
        fused.dead_stores = (before - store_count(&plan.ops)) as u32;
        fused.plan = Arc::new(plan);
        fused
    }
}
