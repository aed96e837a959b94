//! PR 7 parity-maintenance properties: the per-row parity words that an
//! armed CSB maintains *incrementally* (each broadcast XOR-folds the rows
//! it may write before and after its plan; transfers and restores fold
//! each write) must equal a from-scratch recompute over the row data
//! after every program — for every vector operation, every SEW,
//! masked/tail windows, arbitrary operation sequences, and across a
//! mid-sequence `save_registers` / `restore_registers` round-trip.
//! [`Csb::parity_consistent`] *is* that recompute: it folds every row and
//! compares against the stored parity word, so a broadcast that misses a
//! written row (or folds one twice) fails here immediately.
//!
//! Also pins the two fault-layer behaviours the incremental scheme must
//! preserve: a strike is localized to exactly the struck subarray row,
//! and every heal spends exactly one spare, so a block struck once more
//! than the budget stays pending.

use cape_csb::{Csb, CsbGeometry, FaultConfig, FaultKind};
use cape_ucode::{CompiledOp, LogicOp, VectorOp};
use proptest::prelude::*;

const CHAINS: usize = 4;

/// Every operation shape the sequencer accepts (same register layout as
/// the block differential suite: vd=3, vs1=1, vs2=2, mask v0, sparse
/// bits in v4), with scalar specializations that exercise the zero,
/// sign-bit and all-ones kernel fast paths.
fn all_ops() -> Vec<VectorOp> {
    let mut ops = vec![
        VectorOp::Add {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Add {
            vd: 1,
            vs1: 1,
            vs2: 2,
        }, // vd aliases vs1
        VectorOp::Sub {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Mul {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::And {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Or {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Xor {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Mseq {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Msne {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Mslt {
            vd: 3,
            vs1: 1,
            vs2: 2,
            signed: false,
        },
        VectorOp::Mslt {
            vd: 3,
            vs1: 1,
            vs2: 2,
            signed: true,
        },
        VectorOp::MinMax {
            vd: 3,
            vs1: 1,
            vs2: 2,
            max: false,
            signed: false,
        },
        VectorOp::MinMax {
            vd: 3,
            vs1: 1,
            vs2: 2,
            max: true,
            signed: true,
        },
        VectorOp::Macc {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Mv { vd: 3, vs: 1 },
        VectorOp::Merge {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::RedSum { vd: 3, vs: 1 },
        VectorOp::Cpop { vs: 4 },
        VectorOp::First { vs: 4 },
        VectorOp::Vid { vd: 3 },
        VectorOp::Increment { vd: 3 },
    ];
    for rs in [0u32, 0x8000_0001, u32::MAX] {
        ops.extend([
            VectorOp::AddScalar { vd: 3, vs1: 1, rs },
            VectorOp::SubScalar { vd: 3, vs1: 1, rs },
            VectorOp::RsubScalar { vd: 3, vs1: 1, rs },
            VectorOp::MulScalar { vd: 3, vs1: 1, rs },
            VectorOp::MseqScalar { vd: 3, vs1: 1, rs },
            VectorOp::MsneScalar { vd: 3, vs1: 1, rs },
            VectorOp::MsltScalar {
                vd: 3,
                vs1: 1,
                rs,
                signed: true,
            },
            VectorOp::MinMaxScalar {
                vd: 3,
                vs1: 1,
                rs,
                max: true,
                signed: false,
            },
            VectorOp::LogicScalar {
                op: LogicOp::And,
                vd: 3,
                vs1: 1,
                rs,
            },
            VectorOp::LogicScalar {
                op: LogicOp::Or,
                vd: 3,
                vs1: 1,
                rs,
            },
            VectorOp::LogicScalar {
                op: LogicOp::Xor,
                vd: 3,
                vs1: 1,
                rs,
            },
            VectorOp::Broadcast { vd: 3, rs },
        ]);
    }
    for sh in [1u32, 7, 31] {
        ops.extend([
            VectorOp::ShiftLeft { vd: 3, vs: 1, sh },
            VectorOp::ShiftRight { vd: 3, vs: 1, sh },
            VectorOp::ShiftRightArith { vd: 3, vs: 1, sh },
        ]);
    }
    ops
}

/// A CSB with deterministic pseudorandom register contents, a mask in
/// v0 and sparse bits in v4, with the fault layer armed quiescent so
/// every broadcast folds the rows it writes into their parity.
fn armed_csb() -> Csb {
    let mut csb = Csb::new(CsbGeometry::new(CHAINS));
    seed_registers(&mut csb);
    csb.enable_fault_injection(FaultConfig::quiescent(4));
    csb
}

fn seed_registers(csb: &mut Csb) {
    let n = csb.max_vl();
    let mut state = 0x9E37_79B9_u32;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        state
    };
    for reg in [0usize, 1, 2, 3] {
        let vals: Vec<u32> = (0..n).map(|_| next()).collect();
        csb.write_vector(reg, &vals);
    }
    let sparse: Vec<u32> = (0..n).map(|e| u32::from(e % 97 == 41)).collect();
    csb.write_vector(4, &sparse);
}

/// The masked/tail windows the differential suite sweeps: full, restart
/// (vstart > 0), tail (vl < max) and both at once.
const WINDOWS: [(usize, usize); 4] = [(0, 128), (5, 128), (0, 97), (17, 103)];

#[test]
fn every_op_keeps_parity_consistent_at_every_sew_and_window() {
    for op in &all_ops() {
        for sew in [8usize, 16, 32] {
            for &(vstart, vl) in &WINDOWS {
                let mut csb = armed_csb();
                csb.set_active_window(vstart, vl);
                let compiled = CompiledOp::compile(op, sew);
                csb.execute_program(compiled.program());
                assert!(
                    csb.parity_consistent(),
                    "incremental parity diverged from recompute: \
                     {op:?} sew={sew} window={vstart}..{vl}"
                );
            }
        }
    }
}

/// One step of a random program: which op, at which SEW, over which
/// window.
fn step() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    let nops = all_ops().len();
    (0..nops, 0usize..3, 0usize..4).prop_map(|(op, sew, win)| {
        let (vstart, vl) = WINDOWS[win];
        (op, [8usize, 16, 32][sew], vstart, vl)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary microop sequences — with a `save_registers` /
    /// `restore_registers` round-trip spliced in mid-sequence — keep
    /// the incrementally-maintained parity equal to a from-scratch
    /// recompute after every single program, and leave the armed CSB's
    /// architectural results bit-identical to an unarmed twin running
    /// the same sequence (fault mode must observe, never perturb).
    #[test]
    fn random_sequences_with_save_restore_keep_parity_exact(
        steps in proptest::collection::vec(step(), 1..10),
        restore_at in 0usize..10,
    ) {
        let ops = all_ops();
        let mut armed = armed_csb();
        let mut clean = Csb::new(CsbGeometry::new(CHAINS));
        seed_registers(&mut clean);

        let mut snap = None;
        for (i, &(op, sew, vstart, vl)) in steps.iter().enumerate() {
            if i == restore_at % steps.len() {
                // Context switch away and back: the snapshot restore
                // runs through the same parity-maintaining write path
                // as the kernels, with no rescan.
                snap = Some((armed.save_registers(), clean.save_registers()));
            }
            let compiled = CompiledOp::compile(&ops[op], sew);
            armed.set_active_window(vstart, vl);
            clean.set_active_window(vstart, vl);
            armed.execute_program(compiled.program());
            clean.execute_program(compiled.program());
            prop_assert!(
                armed.parity_consistent(),
                "parity diverged after step {i}: {:?} sew={sew}",
                ops[op]
            );
            if let Some((a, c)) = snap.take() {
                armed.restore_registers(&a);
                clean.restore_registers(&c);
                prop_assert!(
                    armed.parity_consistent(),
                    "parity diverged across restore_registers at step {i}"
                );
            }
        }

        // Nothing was injected, so vigilance must have seen nothing…
        prop_assert_eq!(armed.pending_faults(), 0);
        let stats = armed.fault_stats();
        prop_assert_eq!(stats.detected_parity, 0, "false positive parity hit");
        // …and must not have perturbed the architecture.
        for reg in [0usize, 1, 2, 3, 4] {
            let n = armed.max_vl();
            prop_assert_eq!(
                armed.read_vector(reg, n),
                clean.read_vector(reg, n),
                "armed run diverged from clean twin in v{}", reg
            );
        }
    }
}

#[test]
fn injected_fault_is_localized_to_the_struck_row() {
    // Per-row parity pinpoints a strike to its subarray row: flag the
    // fault and the ledger must name exactly (subarray 11, row 7) in
    // exactly one block — not "somewhere in the block".
    let mut csb = armed_csb();
    csb.inject_fault(
        2,
        FaultKind::Transient {
            lane: 5,
            subarray: 11,
            row: 7,
            mask: 0x0040_0001,
            late: false,
        },
    );
    let _ = csb.scrub().expect("fault mode armed");
    assert_eq!(csb.pending_faults(), 1, "strike must be detected");
    let struck = csb.struck_rows();
    assert_eq!(struck.len(), 1, "exactly one row struck: {struck:?}");
    assert_eq!(struck[0].subarray, 11, "wrong subarray: {struck:?}");
    assert_eq!(struck[0].row, 7, "wrong row: {struck:?}");
    // Healing still works off the localized record.
    assert!(csb.quarantine_and_remap().fully_recovered());
    assert!(csb.parity_consistent(), "spare must carry rebuilt parity");
}

#[test]
fn every_heal_spends_one_spare_until_none_are_left() {
    // Strike the same block four times, healing between strikes: each
    // heal spends one of the three spares, so the fourth strike finds
    // none left and stays pending. Every strike is still detected and
    // attributed.
    let mut csb = Csb::new(CsbGeometry::new(CHAINS));
    csb.enable_fault_injection(FaultConfig::quiescent(3));
    for round in 0u8..4 {
        csb.inject_fault(
            0,
            FaultKind::Transient {
                lane: 0,
                subarray: round,
                row: round,
                mask: 1,
                late: false,
            },
        );
        let _ = csb.scrub().expect("armed");
        assert_eq!(csb.pending_faults(), 1, "strike {round} detected");
        let outcome = csb.quarantine_and_remap();
        assert_eq!(outcome.fully_recovered(), round < 3, "strike {round}");
        assert_eq!(csb.spare_blocks_free(), 2usize.saturating_sub(round.into()));
    }
    assert_eq!(csb.pending_faults(), 1);
    let stats = csb.fault_stats();
    assert_eq!(stats.blocks_remapped, 3);
    assert_eq!((stats.injected_transient, stats.detected_parity), (4, 4));
    assert!(stats.fully_accounted(), "{stats:?}");
}
