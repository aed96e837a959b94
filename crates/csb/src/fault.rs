//! Deterministic fault injection and detection.
//!
//! CAPE computes inside SRAM sense amplifiers, so the realistic failure
//! modes of a deployed engine are device faults: stuck-at bits in CSB
//! subarray rows, transient single-shot flips, and whole-block death.
//! This module injects those faults *deterministically* (seeded xorshift,
//! no wall clock) at the block layer and detects them with the two
//! in-array tiers described in DESIGN.md §14–§15:
//!
//! 1. **Incremental per-row parity** — every row-slice of every armed
//!    block carries a parity word the *write path itself* maintains
//!    (each broadcast folds the rows it may write before and after its
//!    plan; see DESIGN.md §15). Injectors bypass that path, creating a
//!    per-row fold/parity mismatch that legitimate writes provably
//!    preserve, and update a one-word per-block *syndrome* at the
//!    strike site — the O(1 cache line) in-array check a real substrate
//!    evaluates on the row it disturbs. Detection is therefore an O(touched blocks)
//!    dirty-event drain plus a one-word syndrome read, not a rescan of
//!    every block, and a nonzero syndrome localizes to the exact struck
//!    `(subarray, row)` coordinates. The drain runs before every
//!    broadcast and in every [`scrub`](crate::Csb::scrub), so a strike
//!    that lands after a broadcast is caught by the next one.
//! 2. **The march-test leg of a scrub** — explicit scrub passes write
//!    and read back test patterns, finding *latent* persistent defects
//!    (a stuck-at forcing the value the cells already hold, say in a row
//!    nothing has written) that parity cannot see until real data
//!    disturbs them. This is what makes the accounting invariant
//!    (`FaultStats::fully_accounted`) hold at any scrub boundary.
//!
//! (The slice-fuel watchdog, which catches runaway control flow rather
//! than bad bits, lives in `cape-cp`.)
//!
//! Detected blocks are latched as *pending* and stay pending until the
//! CSB quarantines them and a spare block takes over their chains
//! ([`crate::Csb::quarantine_and_remap`]). Corruption can never be
//! silently re-absorbed without any verify-before-mutate plumbing: a
//! legitimate write moves a row's data fold and its parity word by the
//! same XOR delta, so the mismatch survives arbitrary overwrites until
//! the block is remapped (the spare rebuilds parity from the data it
//! takes over, and the caller restores a checkpoint over it). If spares
//! run out, the block stays flagged forever and the machine reports
//! itself degraded instead of computing wrong answers.
//!
//! Spares are a count per CSB ([`FaultConfig::spare_blocks`]), not
//! blocks: nothing reads quarantined silicon again, so a remap spends
//! one spare, rebuilds the block's parity in place and retires every
//! fault, late strike and dirty entry aimed at the old silicon. A fault
//! belongs to its block until that quarantine retires it. Blocks are
//! numbered across the whole CSB, so injection targets, the spare
//! budget and the detection order do not depend on how many worker
//! shards the host's thread count cuts.
//!
//! Injectors also record the rows they write, and the CSB adds them to
//! its live-row mask after every call into this layer, so a context
//! switch copies the struck rows and nothing else the tenant left zero.
//!
//! The whole layer is `Option`-wrapped inside [`Csb`](crate::Csb):
//! disabled, the broadcast hot path pays exactly one `is_some()` branch
//! per *program* (not per microop) and the shards skip the per-broadcast
//! parity fold. Armed and clean shards run the same kernels: an armed
//! block folds the rows a broadcast may write into their parity once
//! before and once after the plan, never inside its op loop.

use crate::block::{ChainBlock, ALL_ROWS, BLOCK_LANES};
use crate::geometry::SUBARRAYS_PER_CHAIN;
use crate::pool::Shard;
use crate::subarray::TOTAL_ROWS;

/// What kind of device fault a `FaultRecord` models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A cluster of cells in one subarray row wedged at 0 or 1; re-asserted
    /// on every broadcast tick until the block is quarantined.
    StuckAt {
        /// Lane within the block.
        lane: u8,
        /// Subarray of the wedged row.
        subarray: u8,
        /// Row within the subarray.
        row: u8,
        /// Column bits that are wedged.
        mask: u32,
        /// The wedged value (false = stuck-at-0, true = stuck-at-1).
        value: bool,
    },
    /// A single-shot bit flip (cosmic-ray style): applied once, either
    /// before the broadcast (caught by the pre-run parity scan) or after
    /// it (a mid-broadcast strike, caught by the next parity scan).
    Transient {
        /// Lane within the block.
        lane: u8,
        /// Subarray of the struck row.
        subarray: u8,
        /// Row within the subarray.
        row: u8,
        /// Column bits flipped.
        mask: u32,
        /// True when the strike lands after the broadcast ran.
        late: bool,
    },
    /// Whole-block death: every row, tag and accumulator slice scrambles
    /// to seeded garbage on every tick until quarantined.
    DeadBlock,
}

impl FaultKind {
    /// True when the lane, subarray and row lie inside a block: lane
    /// below [`BLOCK_LANES`], subarray below [`SUBARRAYS_PER_CHAIN`] and
    /// row below [`TOTAL_ROWS`]. A dead block has no coordinate.
    pub fn in_range(&self) -> bool {
        match *self {
            FaultKind::StuckAt {
                lane,
                subarray,
                row,
                ..
            }
            | FaultKind::Transient {
                lane,
                subarray,
                row,
                ..
            } => {
                usize::from(lane) < BLOCK_LANES
                    && usize::from(subarray) < SUBARRAYS_PER_CHAIN
                    && usize::from(row) < TOTAL_ROWS
            }
            FaultKind::DeadBlock => true,
        }
    }
}

/// Which detection tier latched a block as pending.
#[derive(Debug, Clone, Copy)]
enum DetectTier {
    Parity,
    Scrub,
}

/// One injected fault: where it lives and whether detection has
/// attributed it yet.
#[derive(Debug, Clone, Copy)]
struct FaultRecord {
    /// CSB-wide block the fault lives in.
    block: usize,
    kind: FaultKind,
    /// Set once a detection flagged this block.
    detected: bool,
    /// Set once the block is quarantined: the defect belonged to the
    /// retired silicon and stops asserting.
    dormant: bool,
}

/// Configuration for deterministic fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for the xorshift64 stream that drives every random choice.
    pub seed: u64,
    /// Spare blocks provisioned for the whole CSB at enable time — the
    /// remap budget before the machine degrades. The budget does not
    /// depend on how the CSB splits its chains across worker threads.
    pub spare_blocks: usize,
    /// Per-tick probability (parts per million) of registering a new
    /// stuck-at fault.
    pub stuck_ppm: u32,
    /// Per-tick probability (ppm) of a transient single-shot flip.
    pub transient_ppm: u32,
    /// Per-tick probability (ppm) of whole-block death.
    pub dead_ppm: u32,
    /// Hard cap on total injected faults (bounds storm runtimes).
    pub max_faults: u32,
}

impl FaultConfig {
    /// Injection disarmed but detection machinery (per-row parity,
    /// scrub, spares) live — for tests that inject by hand.
    pub fn quiescent(spares: usize) -> Self {
        Self {
            seed: 1,
            spare_blocks: spares,
            stuck_ppm: 0,
            transient_ppm: 0,
            dead_ppm: 0,
            max_faults: 0,
        }
    }
}

/// Running totals of everything the fault layer injected and caught.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Stuck-at faults registered.
    pub injected_stuck: u64,
    /// Transient flips injected.
    pub injected_transient: u64,
    /// Dead-block faults registered.
    pub injected_dead: u64,
    /// Block-level parity mismatches latched.
    pub detected_parity: u64,
    /// Always zero: it counted the golden-model spot check, which is gone
    /// because it never caught a fault parity or the march test missed.
    /// The field stays only because the benchmark report still reads it.
    pub detected_golden: u64,
    /// Latent persistent defects found by scrub's march-test pass (a
    /// stuck-at forcing the value the cell already held is invisible to
    /// parity until the data changes; a deliberate scrub writes test
    /// patterns and finds it anyway).
    pub detected_scrub: u64,
    /// Injected faults attributed to a detection event (the accounting
    /// check: eventually equals the injected total).
    pub faults_attributed: u64,
    /// Explicit scrub passes run.
    pub scrubs: u64,
    /// Blocks quarantined: a spare took over each one's chains.
    pub blocks_remapped: u64,
}

impl FaultStats {
    /// Total faults injected across all classes.
    pub fn injected_total(&self) -> u64 {
        self.injected_stuck + self.injected_transient + self.injected_dead
    }

    /// True when every injected fault has been attributed to a detection.
    pub fn fully_accounted(&self) -> bool {
        self.faults_attributed == self.injected_total()
    }
}

/// One strike localized by the per-row parity: which `(subarray, row)`
/// of which block mismatched when the block was flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StruckRow {
    /// The flagged block, numbered across the whole CSB: block `b` holds
    /// chains `16b..16b + 15` whatever the shard split.
    pub block: u32,
    /// Subarray of the mismatching row.
    pub subarray: u8,
    /// Row within the subarray.
    pub row: u8,
}

/// What one scrub pass saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a scrub report carries pending-fault state the caller must act on"]
pub struct ScrubReport {
    /// Blocks newly flagged by this pass.
    pub newly_flagged: usize,
    /// Total blocks pending quarantine after the pass.
    pub pending: usize,
}

/// What one quarantine-and-remap pass achieved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use = "ignoring a remap outcome hides spare exhaustion"]
pub struct RemapOutcome {
    /// Logical blocks remapped onto spares.
    pub remapped: usize,
    /// Blocks that could not be remapped because the CSB is out of
    /// spares; they stay pending and the machine is degraded.
    pub failed: usize,
}

impl RemapOutcome {
    /// True when every flagged block found a spare.
    pub fn fully_recovered(&self) -> bool {
        self.failed == 0
    }
}

/// The seeded injector plus detection latches, the dirty set, the spare
/// count and the ledger. Lives as `Option<Box<FaultLayer>>` inside the
/// CSB. It numbers blocks across the whole CSB (block `b` holds chains
/// `16b..16b + 15`, whatever the shard split), so nothing it decides
/// depends on the host's thread count. The per-row parity words and
/// block syndromes live in the blocks and travel with shard ownership
/// transfer to worker threads; the injectors that disturb them, and the
/// dirty set they fill, run only on the calling thread.
#[derive(Debug, Clone)]
pub(crate) struct FaultLayer {
    config: FaultConfig,
    rng: u64,
    /// Blocks per shard: block `b` lives in shard `b / shard_blocks`.
    shard_blocks: usize,
    /// Spare blocks left to take over a quarantined block.
    spares: usize,
    /// Blocks latched by a detection, pending quarantine. A flagged
    /// block's corruption persists (parity mismatch travels with the
    /// data) until it is successfully remapped.
    flagged: Vec<bool>,
    pending: Vec<usize>,
    /// Blocks an injector disturbed since the last scan, in first-touch
    /// order: the O(touched) set the detector drains instead of
    /// rehashing every block.
    dirty: Vec<usize>,
    faults: Vec<FaultRecord>,
    /// Transient strikes scheduled to land after the current broadcast.
    late_strikes: Vec<FaultRecord>,
    /// Row-granular localization of every flagged strike, in detection
    /// order (bounded by `max_faults` × rows-per-strike).
    struck: Vec<StruckRow>,
    /// Rows an injector wrote since the CSB last took them
    /// ([`FaultLayer::take_rows_written`]), as a mask over row indices.
    rows_written: u64,
    stats: FaultStats,
}

impl FaultLayer {
    /// Builds the layer over the current (assumed fault-free) shard
    /// state, arming incremental parity on every shard — the one full
    /// parity-rebuild pass, paid once at enable time.
    pub fn new(config: FaultConfig, shards: &mut [Shard]) -> Self {
        let shard_blocks = shards[0].blocks_mut().len();
        let blocks = shards
            .iter_mut()
            .map(|s| {
                s.enable_parity();
                s.blocks_mut().len()
            })
            .sum();
        Self {
            config,
            rng: config.seed | 1,
            shard_blocks,
            spares: config.spare_blocks,
            flagged: vec![false; blocks],
            pending: Vec::new(),
            dirty: Vec::new(),
            faults: Vec::new(),
            late_strikes: Vec::new(),
            struck: Vec::new(),
            rows_written: 0,
            stats: FaultStats::default(),
        }
    }

    /// The rows injectors wrote since the last call, cleared: a strike,
    /// a stuck-at that changed its word, or a dead block's scramble (all
    /// rows). The CSB ORs them into its live-row mask after every call
    /// into this layer.
    pub fn take_rows_written(&mut self) -> u64 {
        std::mem::take(&mut self.rows_written)
    }

    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    pub fn pending_blocks(&self) -> usize {
        self.pending.len()
    }

    /// Spare blocks left.
    pub fn spares_free(&self) -> usize {
        self.spares
    }

    /// Row-granular strike localizations recorded at flag time.
    pub fn struck_rows(&self) -> &[StruckRow] {
        &self.struck
    }

    /// CSB-wide block `b`.
    fn block<'s>(&self, shards: &'s mut [Shard], b: usize) -> &'s mut ChainBlock {
        &mut shards[b / self.shard_blocks].blocks_mut()[b % self.shard_blocks]
    }

    /// Queues block `b` for the next scan.
    fn touch(&mut self, b: usize) {
        if !self.dirty.contains(&b) {
            self.dirty.push(b);
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn roll_ppm(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.next() % 1_000_000 < u64::from(ppm)
    }

    /// Pre-broadcast hook: maybe register new faults, re-assert the
    /// persistent ones and drain the parity dirty set. In the steady
    /// fault-free state the drain is empty, so this is O(registered
    /// faults) — not O(blocks).
    pub fn pre_broadcast(&mut self, shards: &mut [Shard]) {
        self.maybe_inject(shards);
        self.assert_persistent(shards);
        self.scan(shards);
    }

    /// Post-broadcast hook: lands the late transient strikes. Each one
    /// queues its block in the dirty set, so the next scan — before the
    /// next broadcast or in the next scrub — flags it. No baseline
    /// refresh exists: the broadcast folded the rows it wrote into their
    /// parity before this hook runs.
    pub fn post_broadcast(&mut self, shards: &mut [Shard]) {
        for rec in std::mem::take(&mut self.late_strikes) {
            self.land_transient(shards, rec);
        }
    }

    /// Lands one transient strike: flips its bits, queues its block for
    /// the next scan and enters it in the ledger (a strike scheduled but
    /// never landed is not an injection).
    fn land_transient(&mut self, shards: &mut [Shard], mut rec: FaultRecord) {
        let FaultKind::Transient {
            lane,
            subarray,
            row,
            mask,
            ..
        } = rec.kind
        else {
            unreachable!("only transients land as strikes")
        };
        let b = rec.block;
        self.block(shards, b)
            .flip_bits(lane as usize, subarray as usize, row as usize, mask);
        self.rows_written |= 1 << row;
        self.touch(b);
        self.stats.injected_transient += 1;
        if self.flagged[b] {
            // The block is already latched as pending — its contents are
            // condemned and will never be re-absorbed, so the existing
            // detection covers this strike too. Without this, a strike on
            // a flagged block (which scans skip, and the march leg skips
            // as a transient) would stay unattributed forever.
            rec.detected = true;
            self.stats.faults_attributed += 1;
        }
        self.faults.push(rec);
    }

    /// Explicit scrub pass: re-assert persistent faults (the silicon
    /// doesn't wait for a broadcast), drain the parity dirty set, then
    /// march-test. Never injects new faults.
    ///
    /// The march-test leg models a scrub that writes and reads back test
    /// patterns: it finds *latent* persistent defects — a stuck-at
    /// forcing the value the cells already hold, or a dead block whose
    /// scramble happens to collide — that a pure parity compare cannot
    /// see until real data disturbs them. Transients are events, not
    /// defects: they either manifested (parity catches them) or never
    /// happened, so the march pass skips them.
    pub fn scrub(&mut self, shards: &mut [Shard]) -> ScrubReport {
        self.stats.scrubs += 1;
        self.assert_persistent(shards);
        let before = self.pending.len();
        self.scan(shards);
        for i in 0..self.faults.len() {
            let f = self.faults[i];
            if f.dormant || f.detected || matches!(f.kind, FaultKind::Transient { .. }) {
                continue;
            }
            let b = f.block;
            if self.flagged[b] {
                // Block already latched by an earlier tier; the march
                // test confirms this defect too.
                self.faults[i].detected = true;
                self.stats.faults_attributed += 1;
            } else {
                // Latent defect: no parity trace, so localize from the
                // march test's own knowledge of the wedged row.
                let rows = match f.kind {
                    FaultKind::StuckAt { subarray, row, .. } => vec![(subarray, row)],
                    _ => self.block(shards, b).struck_rows(),
                };
                self.flag(b, DetectTier::Scrub, &rows);
            }
        }
        ScrubReport {
            newly_flagged: self.pending.len() - before,
            pending: self.pending.len(),
        }
    }

    /// Quarantines every pending block while spares last; blocks left
    /// over stay pending (degraded machine — their corruption must never
    /// be re-absorbed).
    ///
    /// A spare takes over the block's chains with a best-effort copy of
    /// its (possibly corrupted) data and its lane windows, and rebuilds
    /// parity from that copy (accepting it as ground truth — the caller
    /// restores a clean checkpoint through the write path next), so the
    /// inherited mismatch does not re-flag the block. Nothing reads the
    /// retired silicon again, so the takeover is modeled in place: spend
    /// one spare, rebuild the block's parity, and retire everything aimed
    /// at the old silicon — its fault records go dormant, and its
    /// scheduled late strikes and queued dirty entry are dropped.
    pub fn quarantine_and_remap(&mut self, shards: &mut [Shard]) -> RemapOutcome {
        let mut outcome = RemapOutcome::default();
        for b in std::mem::take(&mut self.pending) {
            if self.spares == 0 {
                self.pending.push(b);
                outcome.failed += 1;
                continue;
            }
            self.spares -= 1;
            self.block(shards, b).rebuild_parity();
            for f in self.faults.iter_mut().filter(|f| f.block == b) {
                f.dormant = true;
            }
            self.late_strikes.retain(|f| f.block != b);
            self.dirty.retain(|&d| d != b);
            self.flagged[b] = false;
            self.stats.blocks_remapped += 1;
            outcome.remapped += 1;
        }
        outcome
    }

    /// Field service: installs `spares` fresh spare blocks and retries
    /// quarantine-and-remap on every pending block.
    pub fn service_spares(&mut self, shards: &mut [Shard], spares: usize) -> RemapOutcome {
        self.spares += spares;
        self.quarantine_and_remap(shards)
    }

    /// Test hook: injects one specific fault record into block `b`.
    pub fn inject_now(&mut self, shards: &mut [Shard], b: usize, kind: FaultKind) {
        let rec = FaultRecord {
            block: b,
            kind,
            detected: false,
            dormant: false,
        };
        match kind {
            FaultKind::StuckAt { .. } => {
                self.stats.injected_stuck += 1;
                self.faults.push(rec);
            }
            FaultKind::Transient { late: false, .. } => self.land_transient(shards, rec),
            // A late strike only counts as injected once it actually
            // lands (`post_broadcast`) — one scheduled after the last
            // broadcast of a run never happens, and an event that never
            // happened must not show up in the accounting ledger.
            FaultKind::Transient { late: true, .. } => self.late_strikes.push(rec),
            FaultKind::DeadBlock => {
                self.stats.injected_dead += 1;
                self.faults.push(rec);
            }
        }
    }

    /// Registered faults so far (live + dormant + scheduled).
    pub fn registered_faults(&self) -> usize {
        self.faults.len() + self.late_strikes.len()
    }

    fn maybe_inject(&mut self, shards: &mut [Shard]) {
        if self.registered_faults() >= self.config.max_faults as usize {
            return;
        }
        let classes = [
            (self.config.stuck_ppm, 0u8),
            (self.config.transient_ppm, 1u8),
            (self.config.dead_ppm, 2u8),
        ];
        for (ppm, class) in classes {
            if self.registered_faults() >= self.config.max_faults as usize {
                break;
            }
            if !self.roll_ppm(ppm) {
                continue;
            }
            let b = (self.next() % self.flagged.len() as u64) as usize;
            if self.flagged[b] {
                continue; // already dying; aim the storm at live silicon
            }
            let lane = (self.next() % BLOCK_LANES as u64) as u8;
            let subarray = (self.next() % SUBARRAYS_PER_CHAIN as u64) as u8;
            let row = (self.next() % TOTAL_ROWS as u64) as u8;
            let mask = (self.next() as u32) | 1;
            let kind = match class {
                0 => FaultKind::StuckAt {
                    lane,
                    subarray,
                    row,
                    mask,
                    value: self.next() & 1 == 1,
                },
                1 => FaultKind::Transient {
                    lane,
                    subarray,
                    row,
                    mask,
                    late: self.next() & 1 == 1,
                },
                _ => FaultKind::DeadBlock,
            };
            self.inject_now(shards, b, kind);
        }
    }

    /// Re-asserts every live persistent fault (stuck-at force, dead-block
    /// scramble). Transients were applied at registration or wait in
    /// `late_strikes`.
    fn assert_persistent(&mut self, shards: &mut [Shard]) {
        // Split borrows: the scramble seed comes from the shared stream.
        for i in 0..self.faults.len() {
            let f = self.faults[i];
            if f.dormant {
                continue;
            }
            let b = f.block;
            match f.kind {
                FaultKind::StuckAt {
                    lane,
                    subarray,
                    row,
                    mask,
                    value,
                } => {
                    let block = self.block(shards, b);
                    if block.force_bits(lane as usize, subarray as usize, row as usize, mask, value)
                    {
                        self.rows_written |= 1 << row;
                        self.touch(b);
                    }
                }
                FaultKind::DeadBlock => {
                    let seed = self.next() as u32 | 1;
                    self.block(shards, b).scramble(seed);
                    self.rows_written = ALL_ROWS;
                    self.touch(b);
                }
                FaultKind::Transient { .. } => {}
            }
        }
    }

    /// Drains the dirty set and checks the one-word syndrome of each
    /// touched block — O(blocks injectors disturbed since the last
    /// drain), empty in the fault-free steady state. A nonzero syndrome
    /// latches the block pending and localizes the strike to its
    /// mismatching rows.
    fn scan(&mut self, shards: &mut [Shard]) {
        for b in std::mem::take(&mut self.dirty) {
            let block = self.block(shards, b);
            if block.syndrome() == 0 || self.flagged[b] {
                // The strike cancelled itself, or the block is already
                // condemned and the strike covered.
                continue;
            }
            let rows = block.struck_rows();
            self.flag(b, DetectTier::Parity, &rows);
        }
    }

    fn flag(&mut self, b: usize, tier: DetectTier, rows: &[(u8, u8)]) {
        self.flagged[b] = true;
        self.pending.push(b);
        self.struck
            .extend(rows.iter().map(|&(subarray, row)| StruckRow {
                block: b as u32,
                subarray,
                row,
            }));
        match tier {
            DetectTier::Parity => self.stats.detected_parity += 1,
            DetectTier::Scrub => self.stats.detected_scrub += 1,
        }
        for f in &mut self.faults {
            if f.block == b && !f.detected && !f.dormant {
                f.detected = true;
                self.stats.faults_attributed += 1;
            }
        }
    }
}
