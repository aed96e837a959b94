//! Fused bit-steps: each verified bit position of a truth-table pass runs
//! as one straight-line plan op.
//!
//! The bit-serial arithmetic of CAPE (paper §V-D, Fig. 7) walks bit
//! positions. At each one the TTM issues a carry search and its update,
//! two searches per flipping group and the groups' updates: up to eight
//! plan ops that touch a handful of cells of subarray `s` (and the carry
//! row of `s + 1`). Per column, their net effect is a Boolean function of
//! about five bits, which [`BitStep`] computes in one lane sweep.
//!
//! A run is never replaced on its looks. [`derive`] cuts the plan into
//! candidate runs — a one-probe search in subarray `s`, then searches in
//! `s` and updates that write only rows of `s` and `s + 1` — and asks an
//! exhaustive truth-table evaluation whether the run equals some
//! `BitStep`: every combination of the window bit, the old tag and
//! accumulator bits of `s` and up to six cells, 512 cases, evaluated as
//! bitwise ops on `[u64; 8]`. A run it cannot prove keeps its ops.
//!
//! Derivation runs once per instruction, when [`MicroProgram::new`]
//! compiles it: its bit positions follow each other, and a candidate run
//! ends where the next position's search moves to another subarray. A
//! fusion window takes its parts' bit-steps as they are.
//!
//! The check depends only on the run's *shape*: its searches and writes
//! over cells numbered by first appearance, where each plan op ends, plus
//! each cell's subarray relation (`s`, `s + 1`, other) and its row
//! numbered by first appearance. Shapes are memoized per thread with the
//! bit-step the check proved, or none, so one check serves every step of
//! a shape (a whole `tenants` run checks a few dozen) and a position costs
//! one encoding and at most one lookup; debug builds re-check every
//! instantiation against its own run.
//!
//! [`MicroProgram::new`]: crate::MicroProgram::new

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{BitAnd, BitOr, BitXor, Not};

use crate::microop::{TagDest, TagMode};
use crate::program::{table_offset, Plan, PlanOp, PlanProbe, PlanWrite};

/// Row `row` of subarray `sub`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell {
    pub sub: u8,
    pub row: u8,
}

/// The addend of a bit-step: a cell, or a constant bit (the `.vx` forms
/// and the increment specialize the scalar's bit into the searches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Addend<C = Cell> {
    Cell(C),
    Const(bool),
}

/// One bit position of a truth-table pass as one plan op: the searches
/// and updates a TTM issues for the bit, replaced by the Boolean function
/// they compute per column.
///
/// Per column of a live lane, with `w` the window bit, `g` the AND of the
/// gates (each cell matched against its wanted value), `a` the addend and
/// `d`, `c` the destination and carry cells of subarray `s` as they were
/// before the step, and `e = w·g·(a ⊕ c)`:
///
/// * `rows[s][d] ^= e`;
/// * `tags[s] = e·d` and `acc[s] = e·¬d`;
/// * with `carry_out`, `rows[s+1][c] |= w·g·maj(d ⊕ borrow, a, c)`.
///
/// A power-gated lane keeps everything. That one form covers the adder,
/// subtractor and incrementer steps of the bit-serial passes: `vadd`,
/// `vsub` and `vrsub` in their `.vv` and `.vx` forms, `vmul`, `vmacc` and
/// the increment. [`derive`] emits one only where the exhaustive check
/// proved it equal to the run it replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BitStep {
    pub s: u8,
    pub d: u8,
    pub c: u8,
    pub addend: Addend,
    /// Up to two gates, packed from the front.
    pub gates: [Option<(Cell, bool)>; 2],
    pub borrow: bool,
    pub carry_out: bool,
}

/// The longest run a bit-step replaces: the carry search and its update,
/// two searches per flipping group and the groups' two updates.
const MAX_RUN: usize = 8;

/// Distinct cells a run may touch: destination, carry, addend, two gates
/// and the carry-out. With the window and the old tags and accumulator
/// they make the check's nine variables.
const MAX_CELLS: usize = 6;

/// Bytes of a shape key; a run whose shape does not fit is no candidate.
const KEY_BYTES: usize = 64;

/// Shapes a thread's memo holds before it starts over: real programs
/// have a few dozen, generated op soups could have any number.
const MEMO_CAP: usize = 1024;

/// A run's shape, encoded: the cell count, the length of the action
/// bytes, the actions, then one descriptor byte per cell (subarray
/// relation in the high nibble, row number in the low one). An action is
/// a search — `0x80 | dest << 2 | mode`, its literal count and one
/// `cell << 1 | wanted` byte per key row of the probe and its gates — or
/// a write — `0x40 | sel << 1 | value` and the cell. The head of the last
/// action of each plan op also carries [`OP_END`], so a key fixes how its
/// actions group into ops. Zero-padded.
type Key = [u8; KEY_BYTES];

/// Marks the head byte of the last action a plan op adds to a key.
const OP_END: u8 = 0x20;

/// An empty slot of [`Shape::cells`]: no subarray is numbered 255.
const NO_CELL: u16 = u16::MAX;

/// A bit-step over a shape's cell numbers: what [`find_template`] proves
/// and [`Template::instantiate`] turns into a [`BitStep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Template {
    d: u8,
    c: u8,
    addend: Addend<u8>,
    gates: [Option<(u8, bool)>; 2],
    borrow: bool,
    /// The carry-out cell, when the step writes one.
    carry_out: Option<u8>,
}

impl Template {
    /// The bit-step this template makes of the run `shape`.
    fn instantiate(&self, shape: &Shape) -> BitStep {
        let cell = |id: u8| shape.cell_at(usize::from(id));
        BitStep {
            s: shape.s,
            d: cell(self.d).row,
            c: cell(self.c).row,
            addend: match self.addend {
                Addend::Cell(id) => Addend::Cell(cell(id)),
                Addend::Const(v) => Addend::Const(v),
            },
            gates: self.gates.map(|g| g.map(|(id, want)| (cell(id), want))),
            borrow: self.borrow,
            carry_out: self.carry_out.is_some(),
        }
    }
}

/// A Boolean function of the check's nine variables, as its truth table
/// over the 512 cases. Variable 0 is the window bit, 1 the old tag bit,
/// 2 the old accumulator bit, `3 + i` cell `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tt([u64; 8]);

/// Variable `v` of the check: case `k` reads bit `v` of `k`. The low six
/// variables alternate within each word, the high three across words.
const fn var(v: usize) -> Tt {
    const IN_WORD: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    let mut words = [0u64; 8];
    let mut w = 0;
    while w < 8 {
        words[w] = if v < 6 {
            IN_WORD[v]
        } else if w >> (v - 6) & 1 == 1 {
            u64::MAX
        } else {
            0
        };
        w += 1;
    }
    Tt(words)
}

/// The window bit, the old tag and accumulator bits and the six cells.
const VARS: [Tt; 9] = [
    var(0),
    var(1),
    var(2),
    var(3),
    var(4),
    var(5),
    var(6),
    var(7),
    var(8),
];

impl Tt {
    const ZERO: Tt = Tt([0; 8]);

    /// This function where `want` is set, its complement otherwise.
    fn lit(self, want: bool) -> Tt {
        if want {
            self
        } else {
            !self
        }
    }
}

impl BitAnd for Tt {
    type Output = Tt;
    fn bitand(self, o: Tt) -> Tt {
        Tt(std::array::from_fn(|i| self.0[i] & o.0[i]))
    }
}

impl BitOr for Tt {
    type Output = Tt;
    fn bitor(self, o: Tt) -> Tt {
        Tt(std::array::from_fn(|i| self.0[i] | o.0[i]))
    }
}

impl BitXor for Tt {
    type Output = Tt;
    fn bitxor(self, o: Tt) -> Tt {
        Tt(std::array::from_fn(|i| self.0[i] ^ o.0[i]))
    }
}

impl Not for Tt {
    type Output = Tt;
    fn not(self) -> Tt {
        Tt(self.0.map(|w| !w))
    }
}

/// One decoded action of a shape key.
enum Action<'a> {
    /// A search: the AND of its literals (`cell << 1 | wanted`) and the
    /// window, latched into `dest` of `s` under `mode`.
    Search {
        lits: &'a [u8],
        dest: TagDest,
        mode: TagMode,
    },
    /// A row write of `cell` at the columns `sel` picks from `s`'s
    /// registers (0 = window, 1 = tags, 2 = accumulator).
    Write { cell: u8, sel: u8, value: bool },
}

/// The actions of a shape key's action bytes, in order ([`OP_END`] marks
/// are skipped: no field reads that bit).
fn actions(mut bytes: &[u8]) -> impl Iterator<Item = Action<'_>> {
    std::iter::from_fn(move || {
        let (&head, rest) = bytes.split_first()?;
        let (&arg, rest) = rest.split_first()?;
        if head & 0x80 != 0 {
            let (lits, rest) = rest.split_at(usize::from(arg));
            bytes = rest;
            let dest = if head >> 2 & 1 == 0 {
                TagDest::Tags
            } else {
                TagDest::Acc
            };
            let mode = match head & 3 {
                0 => TagMode::Set,
                1 => TagMode::And,
                _ => TagMode::Or,
            };
            Some(Action::Search { lits, dest, mode })
        } else {
            bytes = rest;
            Some(Action::Write {
                cell: arg,
                sel: head >> 1 & 3,
                value: head & 1 == 1,
            })
        }
    })
}

/// What a run leaves in the six cells, the tags and the accumulator of
/// subarray `s`, as functions of the check's nine variables: the run
/// evaluated on all 512 starting states at once.
#[derive(Debug, Clone, Copy)]
struct Effect {
    cells: [Tt; MAX_CELLS],
    tags: Tt,
    acc: Tt,
}

impl Effect {
    /// Runs `action_bytes` from every starting state. Only live lanes
    /// need evaluating: in a gated lane every op and the bit-step change
    /// nothing.
    fn of(action_bytes: &[u8]) -> Self {
        let [w, tags, acc, cells @ ..] = VARS;
        let mut e = Effect { cells, tags, acc };
        for action in actions(action_bytes) {
            match action {
                Action::Search { lits, dest, mode } => {
                    let m = lits.iter().fold(w, |m, &lit| {
                        m & e.cells[usize::from(lit >> 1)].lit(lit & 1 == 1)
                    });
                    let reg = match dest {
                        TagDest::Tags => &mut e.tags,
                        TagDest::Acc => &mut e.acc,
                    };
                    *reg = match mode {
                        TagMode::Set => m,
                        TagMode::And => *reg & (m | !w),
                        TagMode::Or => *reg | m,
                    };
                }
                Action::Write { cell, sel, value } => {
                    let cols = match sel {
                        0 => w,
                        1 => w & e.tags,
                        _ => w & e.acc,
                    };
                    let row = &mut e.cells[usize::from(cell)];
                    *row = if value { *row | cols } else { *row & !cols };
                }
            }
        }
        e
    }

    /// The exhaustive check: true when the bit-step `t` leaves exactly
    /// what the run does, from every one of the 512 starting states.
    fn is(&self, t: &Template) -> bool {
        let [w, _, _, old @ ..] = VARS;
        let at = |id: u8| old[usize::from(id)];
        let g = t
            .gates
            .iter()
            .flatten()
            .fold(w, |g, &(id, want)| g & at(id).lit(want));
        let a = match t.addend {
            Addend::Cell(id) => at(id),
            Addend::Const(v) => Tt::ZERO.lit(!v),
        };
        let (d, c) = (at(t.d), at(t.c));
        let e = g & (a ^ c);
        let mut want = old;
        want[usize::from(t.d)] = d ^ e;
        if let Some(co) = t.carry_out {
            let db = d.lit(!t.borrow);
            want[usize::from(co)] = at(co) | (g & ((a & c) | (db & (a ^ c))));
        }
        self.cells == want && self.tags == (e & d) && self.acc == (e & !d)
    }
}

/// The cell numbers set in a bit mask.
fn ids(mask: u8) -> impl Iterator<Item = u8> {
    (0..8).filter(move |i| mask >> i & 1 == 1)
}

/// Searches the bit-steps a shape could be for one the exhaustive check
/// proves equal to it. The destination is the one cell written in `s`;
/// a cell written in `s + 1` is the carry-out, and the carry is then the
/// cell of `s` on its row. Every other role is tried: the carry (without
/// a carry-out), the addend (any read cell or a constant), the gates
/// (the read cells left, at most two, either polarity) and the borrow.
fn find_template(key: &Key) -> Option<Template> {
    let (ncells, alen) = (usize::from(key[0]), usize::from(key[1]));
    let (action_bytes, desc) = key[2..].split_at(alen);
    let desc = &desc[..ncells];
    let with_rel = |rel: u8| {
        desc.iter()
            .enumerate()
            .filter(|(_, b)| *b >> 4 == rel)
            .fold(0u8, |m, (i, _)| m | 1 << i)
    };
    let (in_s, in_next, in_other) = (with_rel(0), with_rel(1), with_rel(2));
    let (mut read, mut written) = (0u8, 0u8);
    for action in actions(action_bytes) {
        match action {
            Action::Search { lits, .. } => {
                for lit in lits {
                    read |= 1 << (lit >> 1);
                }
            }
            Action::Write { cell, .. } => written |= 1 << cell,
        }
    }
    let single = |mask: u8| (mask.count_ones() == 1).then(|| mask.trailing_zeros() as u8);
    let d = single(written & in_s)?;
    if written & in_other != 0 {
        return None;
    }
    let carry_out = match written & in_next {
        0 => None,
        m => Some(single(m)?),
    };
    let carries = match carry_out {
        Some(co) => ids(in_s)
            .filter(|&i| desc[usize::from(i)] & 0xF == desc[usize::from(co)] & 0xF)
            .fold(0u8, |m, i| m | 1 << i),
        None => in_s & read,
    };
    let borrows: &[bool] = if carry_out.is_some() {
        &[false, true]
    } else {
        &[false]
    };
    let effect = Effect::of(action_bytes);
    for c in ids(carries) {
        let addends = ids(read)
            .map(Addend::Cell)
            .chain([Addend::Const(false), Addend::Const(true)]);
        for addend in addends {
            let mut rest = read & !(1 << d) & !(1 << c);
            if let Addend::Cell(a) = addend {
                rest &= !(1 << a);
            }
            if rest.count_ones() > 2 {
                continue;
            }
            for polarity in 0..1u8 << rest.count_ones() {
                let mut gates = [None; 2];
                for (k, id) in ids(rest).enumerate() {
                    gates[k] = Some((id, polarity >> k & 1 == 1));
                }
                for &borrow in borrows {
                    let t = Template {
                        d,
                        c,
                        addend,
                        gates,
                        borrow,
                        carry_out,
                    };
                    if effect.is(&t) {
                        return Some(t);
                    }
                }
            }
        }
    }
    None
}

/// A candidate run in shape form, with the concrete cells its numbers
/// stand for.
struct Shape {
    key: Key,
    len: usize,
    /// The cells by number, each packed as `sub << 8 | row`; slots past
    /// `ncells` hold [`NO_CELL`].
    cells: [u16; MAX_CELLS],
    ncells: usize,
    /// The subarray the run searches.
    s: u8,
    /// Where the head byte of the last action pushed sits.
    head: usize,
}

impl Shape {
    /// Encodes the longest prefix of `ops`, at most [`MAX_RUN`] ops, that
    /// may be a bit-step in subarray `s`: one-probe searches in `s` and
    /// updates writing only rows of `s` and `s + 1` at columns picked by
    /// the window or by `s`'s own registers, over at most [`MAX_CELLS`]
    /// cells, within a key. Returns the shape and the prefix length, or
    /// `None` when not even the first op qualifies.
    fn encode(ops: &[PlanOp], plan: &Plan, s: u8) -> Option<(Shape, usize)> {
        let mut shape = Shape {
            key: [0; KEY_BYTES],
            len: 2,
            cells: [NO_CELL; MAX_CELLS],
            ncells: 0,
            s,
            head: 0,
        };
        let mut n = 0;
        for op in ops.iter().take(MAX_RUN) {
            let (len, ncells) = (shape.len, shape.ncells);
            if shape.op(op, plan).is_none() {
                shape.rollback(len, ncells);
                break;
            }
            shape.key[shape.head] |= OP_END;
            n += 1;
        }
        if n == 0 {
            return None;
        }
        shape.key[0] = shape.ncells as u8;
        shape.key[1] = (shape.len - 2) as u8;
        let (mut rows, mut nrows) = ([0u8; MAX_CELLS], 0);
        for i in 0..shape.ncells {
            let Cell { sub, row } = shape.cell_at(i);
            let class = match rows[..nrows].iter().position(|&r| r == row) {
                Some(k) => k,
                None => {
                    rows[nrows] = row;
                    nrows += 1;
                    nrows - 1
                }
            };
            let rel = match sub.wrapping_sub(s) {
                k @ (0 | 1) => k,
                _ => 2,
            };
            // `op` leaves room for one descriptor per cell.
            shape.key[shape.len] = rel << 4 | class as u8;
            shape.len += 1;
        }
        Some((shape, n))
    }

    /// Appends one op, or `None` when it cannot belong to the run.
    fn op(&mut self, op: &PlanOp, plan: &Plan) -> Option<()> {
        match *op {
            PlanOp::SearchOne { probe, dest, mode } => self.search(&probe, &[], dest, mode),
            PlanOp::Step {
                probe,
                dest,
                mode,
                nwrites,
                writes,
            } => {
                self.search(&probe, &[], dest, mode)?;
                writes[..usize::from(nwrites)]
                    .iter()
                    .try_for_each(|w| self.write(w))
            }
            PlanOp::Search {
                at,
                probes,
                gates,
                dest,
                mode,
            } => {
                let (probes, gates) = plan.search(at, probes, gates);
                let [probe] = probes else { return None };
                self.search(probe, gates, dest, mode)
            }
            PlanOp::UpdateOne { write } => self.write(&write),
            PlanOp::UpdateTwo { writes } => writes.iter().try_for_each(|w| self.write(w)),
            PlanOp::Update { at, n } => plan.update(at, n).iter().try_for_each(|w| self.write(w)),
            _ => None,
        }
    }

    /// Forgets what an op that did not fit appended.
    fn rollback(&mut self, len: usize, ncells: usize) {
        self.key[len..self.len].fill(0);
        self.len = len;
        self.cells[ncells..self.ncells].fill(NO_CELL);
        self.ncells = ncells;
    }

    /// Cell number `id`.
    fn cell_at(&self, id: usize) -> Cell {
        let [sub, row] = self.cells[id].to_be_bytes();
        Cell { sub, row }
    }

    /// The cells by number.
    fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        (0..self.ncells).map(|id| self.cell_at(id))
    }

    /// Starts an action with head byte `head` and `bytes` bytes after it,
    /// or `None` when it would leave no room for the cell descriptors.
    fn action(&mut self, head: u8, bytes: usize) -> Option<()> {
        if self.len + 1 + bytes + MAX_CELLS > KEY_BYTES {
            return None;
        }
        self.head = self.len;
        self.key[self.len] = head;
        self.len += 1;
        Some(())
    }

    /// Appends the number of row `row` of subarray `sub`, numbering it if
    /// new, shifted left by `shift` and ORed with `low`.
    fn cell(&mut self, sub: u8, row: u8, shift: u8, low: u8) -> Option<()> {
        // Every slot is compared, a fixed-length loop: an empty one holds
        // no cell.
        let cell = u16::from_be_bytes([sub, row]);
        let id = match self.cells.iter().position(|&c| c == cell) {
            Some(id) => id,
            None if self.ncells < MAX_CELLS => {
                self.cells[self.ncells] = cell;
                self.ncells += 1;
                self.ncells - 1
            }
            None => return None,
        };
        self.key[self.len] = (id as u8) << shift | low;
        self.len += 1;
        Some(())
    }

    fn search(
        &mut self,
        probe: &PlanProbe,
        gates: &[PlanProbe],
        dest: TagDest,
        mode: TagMode,
    ) -> Option<()> {
        if probe.subarray != self.s {
            return None;
        }
        let dest = u8::from(dest == TagDest::Acc);
        let mode = match mode {
            TagMode::Set => 0,
            TagMode::And => 1,
            TagMode::Or => 2,
        };
        let lits = probe.nkeys + gates.iter().map(|g| g.nkeys).sum::<u8>();
        self.action(0x80 | dest << 2 | mode, 1 + usize::from(lits))?;
        self.key[self.len] = lits;
        self.len += 1;
        for p in std::iter::once(probe).chain(gates) {
            for k in 0..usize::from(p.nkeys) {
                self.cell(p.subarray, p.rows[k], 1, u8::from(p.inv[k] == 0))?;
            }
        }
        Some(())
    }

    fn write(&mut self, w: &PlanWrite) -> Option<()> {
        if w.subarray.wrapping_sub(self.s) > 1 || (w.sel != 0 && w.src != self.s) {
            return None;
        }
        self.action(0x40 | w.sel << 1 | u8::from(w.value), 1)?;
        self.cell(w.subarray, w.row, 0, 0)
    }

    /// The action bytes of the key.
    fn actions(&self) -> &[u8] {
        &self.key[2..][..usize::from(self.key[1])]
    }

    /// The exhaustive check of `step` against this run itself, with the
    /// step's cells looked up among the run's: what debug builds assert
    /// for every memoized instantiation.
    fn admits(&self, step: &BitStep) -> bool {
        let mut cells = [Cell { sub: 0, row: 0 }; MAX_CELLS];
        let mut n = 0;
        for cell in self.cells() {
            cells[n] = cell;
            n += 1;
        }
        let mut id = |cell: Cell| match cells[..n].iter().position(|&c| c == cell) {
            Some(i) => Some(i as u8),
            None if n < MAX_CELLS => {
                cells[n] = cell;
                n += 1;
                Some(n as u8 - 1)
            }
            None => None,
        };
        let at = |sub: u8, row: u8| Cell { sub, row };
        let (Some(d), Some(c)) = (id(at(step.s, step.d)), id(at(step.s, step.c))) else {
            return false;
        };
        let carry_out = if step.carry_out {
            match id(at(step.s + 1, step.c)) {
                Some(co) => Some(co),
                None => return false,
            }
        } else {
            None
        };
        let addend = match step.addend {
            Addend::Cell(cell) => match id(cell) {
                Some(a) => Addend::Cell(a),
                None => return false,
            },
            Addend::Const(v) => Addend::Const(v),
        };
        let mut gates = [None; 2];
        for (slot, gate) in gates.iter_mut().zip(step.gates) {
            if let Some((cell, want)) = gate {
                match id(cell) {
                    Some(g) => *slot = Some((g, want)),
                    None => return false,
                }
            }
        }
        let t = Template {
            d,
            c,
            addend,
            gates,
            borrow: step.borrow,
            carry_out,
        };
        Effect::of(self.actions()).is(&t)
    }
}

/// FxHash-style multiply-rotate over 8-byte words: a shape key hashes in
/// eight rounds, not sixty-four. It has no defence against crafted
/// collisions; the memo holds at most [`MEMO_CAP`] shapes, so a program
/// built to collide costs a scan of that many keys per lookup at worst.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for w in words {
            self.add(u64::from_le_bytes(*w));
        }
        for &b in tail {
            self.add(u64::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Per shape: the bit-step the check proved the run equal to, if any.
type Memo = HashMap<Key, Option<Template>, BuildHasherDefault<WordHasher>>;

thread_local! {
    /// Checked shapes and what each one proved.
    static SHAPES: RefCell<Memo> = RefCell::default();
}

/// The subarray of `op`'s one probe, when it is a search with one probe.
fn one_probe_subarray(op: &PlanOp, plan: &Plan) -> Option<u8> {
    match *op {
        PlanOp::SearchOne { probe, .. } | PlanOp::Step { probe, .. } => Some(probe.subarray),
        PlanOp::Search {
            at,
            probes: 1,
            gates,
            ..
        } => Some(plan.search(at, 1, gates).0[0].subarray),
        _ => None,
    }
}

/// The memo, and the last shape looked up in it with what it proved:
/// the bit positions of one pass share a shape, so most steps skip the
/// hash lookup.
struct Shapes<'a> {
    memo: &'a mut Memo,
    last: (Key, Option<Template>),
}

/// The bit-step that replaces the candidate run at the start of `ops`,
/// with the run's length: one encoding of the run and at most one memo
/// lookup.
fn bit_step_at(ops: &[PlanOp], plan: &Plan, shapes: &mut Shapes) -> Option<(usize, BitStep)> {
    let s = one_probe_subarray(&ops[0], plan)?;
    let (shape, len) = Shape::encode(ops, plan, s)?;
    if len < 2 {
        return None;
    }
    if shapes.last.0 != shape.key {
        let proved = *shapes
            .memo
            .entry(shape.key)
            .or_insert_with(|| find_template(&shape.key));
        shapes.last = (shape.key, proved);
    }
    let step = shapes.last.1?.instantiate(&shape);
    debug_assert!(
        shape.admits(&step),
        "{step:?} is not the run {:?}",
        &ops[..len]
    );
    Some((len, step))
}

/// `plan` with every run of its ops that the exhaustive check proves a
/// [`BitStep`] replaced by that one [`PlanOp::BitStep`]; every other op
/// stays. Where something fused, the side tables keep only what the
/// remaining ops index; where nothing did, the plan comes back untouched.
/// Reductions and written rows are the plan's.
pub(crate) fn derive(plan: Plan) -> Plan {
    let (mut ops, mut copied) = (Vec::new(), 0);
    SHAPES.with_borrow_mut(|memo| {
        if memo.len() > MEMO_CAP {
            memo.clear();
        }
        // No encoded run has an all-zero key: it numbers at least one cell.
        let mut shapes = Shapes {
            memo,
            last: ([0; KEY_BYTES], None),
        };
        let mut i = 0;
        while i < plan.ops.len() {
            match bit_step_at(&plan.ops[i..], &plan, &mut shapes) {
                Some((len, step)) => {
                    ops.extend_from_slice(&plan.ops[copied..i]);
                    ops.push(PlanOp::BitStep(step));
                    i += len;
                    copied = i;
                }
                None => i += 1,
            }
        }
    });
    if copied == 0 {
        return plan;
    }
    ops.extend_from_slice(&plan.ops[copied..]);
    ops.shrink_to_fit();
    let (mut probes, mut writes) = (Vec::new(), Vec::new());
    for op in &mut ops {
        match op {
            PlanOp::Search {
                at,
                probes: np,
                gates,
                ..
            } => {
                let n = usize::from(*np) + usize::from(*gates);
                let from = std::mem::replace(at, table_offset(probes.len()));
                probes.extend_from_slice(&plan.probes[from as usize..][..n]);
            }
            PlanOp::Update { at, n } => {
                let from = std::mem::replace(at, table_offset(writes.len()));
                writes.extend_from_slice(plan.update(from, *n));
            }
            _ => {}
        }
    }
    Plan {
        ops,
        probes,
        writes,
        ..plan
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::csb::{scalar_reference, Csb};
    use crate::geometry::{CsbGeometry, SUBARRAYS_PER_CHAIN};
    use crate::microop::{ColSel, MicroOp, Probe, WriteSpec};
    use crate::program::MicroProgram;
    use crate::subarray::{ROW_CARRY, ROW_FLAG};
    use proptest::prelude::*;

    /// The destination, addend and gate rows of the steps below.
    pub(crate) const D: usize = 3;
    pub(crate) const A: usize = 2;
    pub(crate) const G: usize = 5;

    /// One adder bit-step as the sequencer's truth-table pass emits it:
    /// bit `s`, the addend bit in subarray `a_sub` (a gate when it is not
    /// `s`, as in `vmul`'s shifted passes), an optional multiplier gate in
    /// subarray `gate`, and the carry into `s + 1` unless `s` is the MSB.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Spec {
        pub s: usize,
        pub a_sub: usize,
        pub gate: Option<usize>,
        pub carry_out: bool,
    }

    impl Spec {
        fn search(
            &self,
            d: Option<bool>,
            a: bool,
            c: bool,
            dest: TagDest,
            mode: TagMode,
        ) -> MicroOp {
            let mut keys: Vec<(usize, bool)> = d.map(|v| (D, v)).into_iter().collect();
            keys.push((ROW_CARRY, c));
            let mut gates: Vec<Probe> = self
                .gate
                .map(|g| Probe::row(g, G, true))
                .into_iter()
                .collect();
            if self.a_sub == self.s {
                keys.push((A, a));
            } else {
                gates.push(Probe::row(self.a_sub, A, a));
            }
            MicroOp::Search {
                probes: vec![Probe::new(self.s, keys)],
                gates,
                dest,
                mode,
            }
        }

        fn update(&self, d: Option<bool>, carry: bool, src: TagDest) -> Option<MicroOp> {
            let cols = match src {
                TagDest::Tags => ColSel::Tags(self.s),
                TagDest::Acc => ColSel::Acc(self.s),
            };
            let mut writes: Vec<WriteSpec> = d
                .map(|value| WriteSpec {
                    subarray: self.s,
                    row: D,
                    value,
                    cols,
                })
                .into_iter()
                .collect();
            if carry && self.carry_out {
                writes.push(WriteSpec {
                    subarray: self.s + 1,
                    row: ROW_CARRY,
                    value: true,
                    cols,
                });
            }
            (!writes.is_empty()).then_some(MicroOp::Update { writes })
        }

        /// The carry group, the accumulator and tag groups of the full
        /// adder, then the two groups' updates.
        pub(crate) fn ops(&self) -> Vec<MicroOp> {
            let mut ops = vec![self.search(None, true, true, TagDest::Tags, TagMode::Set)];
            ops.extend(self.update(None, true, TagDest::Tags));
            ops.push(self.search(Some(false), false, true, TagDest::Acc, TagMode::Set));
            ops.push(self.search(Some(false), true, false, TagDest::Acc, TagMode::Or));
            ops.push(self.search(Some(true), false, true, TagDest::Tags, TagMode::Set));
            ops.push(self.search(Some(true), true, false, TagDest::Tags, TagMode::Or));
            ops.extend(self.update(Some(true), false, TagDest::Acc));
            ops.extend(self.update(Some(false), true, TagDest::Tags));
            ops
        }
    }

    /// An 8-chain CSB with pseudorandom rows, tags and accumulators in
    /// every subarray and the window `vstart..vl`.
    fn seeded(vstart: usize, vl: usize) -> Csb {
        let mut csb = Csb::new(CsbGeometry::new(8));
        let mut state = 0x2545_F491_u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for c in 0..8 {
            for sub in 0..SUBARRAYS_PER_CHAIN {
                for row in [A, D, G, ROW_CARRY, ROW_FLAG] {
                    csb.write_chain_row(c, sub, row, next(), u32::MAX);
                }
                csb.set_chain_tags(c, sub, next());
                csb.set_chain_acc(c, sub, next());
            }
        }
        csb.set_active_window(vstart, vl);
        csb
    }

    /// Runs `prog` against the scalar `Chain` oracle over `ops` on a full
    /// window (8 live chains: span 16) and a partial one (chains 0-2:
    /// span 4, the last one partly masked).
    pub(crate) fn assert_matches_oracle(prog: &MicroProgram, ops: &[MicroOp]) {
        for (vstart, vl) in [(0, 256), (5, 77)] {
            let mut csb = seeded(vstart, vl);
            let (chains, sums) = scalar_reference(&csb, ops);
            assert_eq!(
                csb.execute_program(prog),
                sums,
                "sums, window {vstart}..{vl}"
            );
            for (c, want) in chains.iter().enumerate() {
                assert_eq!(&csb.chain(c), want, "chain {c}, window {vstart}..{vl}");
            }
        }
    }

    const SPECS: [Spec; 4] = [
        // vadd: addend in the step's own subarray.
        Spec {
            s: 4,
            a_sub: 4,
            gate: None,
            carry_out: true,
        },
        // vmul pass j = 0: addend in place, multiplier bit as a gate.
        Spec {
            s: 0,
            a_sub: 0,
            gate: Some(0),
            carry_out: true,
        },
        // vmul pass j = 3: shifted addend and the multiplier bit.
        Spec {
            s: 9,
            a_sub: 6,
            gate: Some(3),
            carry_out: true,
        },
        // The MSB of a pass: no carry-out.
        Spec {
            s: 31,
            a_sub: 28,
            gate: Some(3),
            carry_out: false,
        },
    ];

    #[test]
    fn adder_steps_fuse_and_match_the_scalar_chain() {
        for spec in SPECS {
            let ops = spec.ops();
            let prog = MicroProgram::new(ops.clone());
            assert_eq!((prog.bit_steps(), prog.plan_len()), (1, 1), "{spec:?}");
            assert_matches_oracle(&prog, &ops);
        }
    }

    #[test]
    fn a_step_with_a_flipped_search_is_not_fused() {
        for spec in SPECS {
            let mut ops = spec.ops();
            // The second accumulator-group pattern now matches c = 1.
            let MicroOp::Search { probes, .. } = &mut ops[3] else {
                panic!("op 3 is the second accumulator search")
            };
            let key = probes[0]
                .keys
                .iter_mut()
                .find(|(row, _)| *row == ROW_CARRY)
                .expect("the search keys the carry");
            key.1 = !key.1;
            let prog = MicroProgram::new(ops.clone());
            assert_eq!(prog.bit_steps(), 0, "{spec:?}");
            assert_matches_oracle(&prog, &ops);
        }
    }

    #[test]
    fn a_step_writing_its_carry_to_another_row_is_not_fused() {
        for spec in SPECS.into_iter().filter(|s| s.carry_out) {
            let mut ops = spec.ops();
            for op in &mut ops {
                if let MicroOp::Update { writes } = op {
                    for w in writes.iter_mut().filter(|w| w.subarray == spec.s + 1) {
                        w.row = ROW_FLAG;
                    }
                }
            }
            let prog = MicroProgram::new(ops.clone());
            assert_eq!(prog.bit_steps(), 0, "{spec:?}");
            assert_matches_oracle(&prog, &ops);
        }
    }

    #[test]
    fn one_check_serves_every_step_of_a_shape() {
        // Thirty-one steps of one vadd pass share two shapes: with a
        // carry-out and without. A fresh thread starts with an empty memo.
        std::thread::spawn(|| {
            let ops: Vec<MicroOp> = (0..32)
                .flat_map(|s| {
                    Spec {
                        s,
                        a_sub: s,
                        gate: None,
                        carry_out: s < 31,
                    }
                    .ops()
                })
                .collect();
            let prog = MicroProgram::new(ops.clone());
            assert_eq!(prog.bit_steps(), 32);
            assert_eq!(SHAPES.with_borrow(|m| m.len()), 2);
            assert_matches_oracle(&prog, &ops);
        })
        .join()
        .expect("the test thread panicked");
    }

    /// One op of a step mutated: a key's polarity, a write's row, value
    /// or column source, or a search's mode.
    fn mutate(ops: &mut [MicroOp], at: usize, how: u8) {
        match (&mut ops[at % ops.len()], how % 4) {
            (MicroOp::Search { probes, .. }, 0) => probes[0].keys[0].1 ^= true,
            (MicroOp::Search { mode, .. }, _) => {
                *mode = match *mode {
                    TagMode::Set => TagMode::Or,
                    _ => TagMode::Set,
                }
            }
            (MicroOp::Update { writes }, 0) => writes[0].row = ROW_FLAG,
            (MicroOp::Update { writes }, 1) => writes[0].value ^= true,
            (MicroOp::Update { writes }, _) => writes[0].cols = ColSel::Window,
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Steps of every placement, intact or with one op mutated, and
        /// split into a two-part window anywhere: whatever fuses, the
        /// program and the window match the scalar oracle, and an intact
        /// step always fuses.
        #[test]
        fn steps_fuse_only_where_they_match_the_scalar_chain(
            s in 0..SUBARRAYS_PER_CHAIN,
            a_back in 0..4usize,
            gate in proptest::option::of(0..SUBARRAYS_PER_CHAIN),
            mutation in proptest::option::of((0..8usize, any::<u8>())),
            cut in 0..9usize,
        ) {
            let spec = Spec {
                s,
                a_sub: s.saturating_sub(a_back),
                gate,
                carry_out: s + 1 < SUBARRAYS_PER_CHAIN,
            };
            let mut ops = spec.ops();
            if let Some((at, how)) = mutation {
                mutate(&mut ops, at, how);
            }
            let prog = MicroProgram::new(ops.clone());
            if mutation.is_none() {
                prop_assert_eq!(prog.bit_steps(), 1, "{:?}", spec);
            }
            assert_matches_oracle(&prog, &ops);
            let cut = cut.min(ops.len());
            let parts = [
                MicroProgram::new(ops[..cut].to_vec()),
                MicroProgram::new(ops[cut..].to_vec()),
            ];
            let window = MicroProgram::windowed(&[&parts[0], &parts[1]]);
            assert_matches_oracle(&window, &ops);
        }
    }
}
