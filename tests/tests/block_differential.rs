//! Differential tests for the block-SoA kernel layer: the block-backed
//! broadcast path inside [`Csb`](cape_csb::Csb) must be bit-identical to
//! the scalar [`Chain`] reference model — same reduction sums, same
//! register file, same tags/accumulators/metadata, same recorded microop
//! stats — for every vector operation, every SEW, and masked/tail
//! windows, and a `save_registers` / `restore_registers` context switch
//! through the block layout must round-trip bit-exactly.

mod common;

use cape_csb::Chain;
use cape_ucode::{CompiledOp, VectorOp};
use common::{all_ops, reference_program, seeded_csb};

/// Runs `op`'s compiled microop program through the block-backed CSB and
/// through scalar reference chains seeded with identical state, then
/// asserts bit-exact agreement of reduction sums and complete chain state
/// (registers, metadata rows, tags, accumulators), and that the CSB
/// recorded exactly the program's static microop stats.
fn assert_block_matches_scalar(op: &VectorOp, sew: usize, vstart: usize, vl: usize, chains: usize) {
    let mut csb = seeded_csb(chains);
    csb.set_active_window(vstart, vl);

    // Materialize the scalar reference of the identical starting state.
    let mut reference: Vec<Chain> = (0..chains).map(|c| csb.chain(c)).collect();
    let windows: Vec<u32> = (0..chains).map(|c| csb.window(c)).collect();

    let compiled = CompiledOp::compile(op, sew);
    let block_sums = csb.execute_program(compiled.program());
    let ref_sums = reference_program(&mut reference, &windows, compiled.program());

    let ctx = format!("{op:?} sew={sew} window={vstart}..{vl} chains={chains}");
    assert_eq!(block_sums, ref_sums, "reduction sums: {ctx}");
    assert_eq!(
        csb.stats(),
        compiled.program().stats(),
        "microop stats: {ctx}"
    );
    for (c, want) in reference.iter().enumerate() {
        assert_eq!(&csb.chain(c), want, "chain {c}: {ctx}");
    }
}

#[test]
fn every_op_matches_scalar_chains_at_every_sew() {
    for op in &all_ops() {
        for sew in [8usize, 16, 32] {
            assert_block_matches_scalar(op, sew, 0, 128, 4);
        }
    }
}

#[test]
fn every_op_matches_scalar_chains_on_masked_and_tail_windows() {
    // vstart > 0 (restart), vl < max (tail), and both at once. The tail
    // windows gate whole chains and partially mask others, exercising
    // both the block-level active list and the per-lane act blending.
    for op in &all_ops() {
        for &(vstart, vl) in &[(0usize, 77usize), (13, 128), (5, 99)] {
            assert_block_matches_scalar(op, 32, vstart, vl, 4);
        }
    }
}

#[test]
fn every_op_matches_scalar_chains_at_both_lane_spans() {
    // A block whose live lanes all lie in lanes 0-3 runs the span-4
    // kernels, any other active block the span-16 ones. 20 chains: block
    // 1 holds 4 chains, so a span-4 block runs beside a span-16 one, over
    // a full window and a restart-plus-tail one. 16 chains at vl 3: the
    // window narrows a full block to span 4; at vl 5 the span stays 16
    // with lanes 5-15 gated.
    for op in &all_ops() {
        for &(vstart, vl) in &[(0usize, 640usize), (7, 384)] {
            assert_block_matches_scalar(op, 32, vstart, vl, 20);
        }
        for vl in [3usize, 5] {
            assert_block_matches_scalar(op, 32, 0, vl, 16);
        }
    }
}

#[test]
fn representative_ops_match_scalar_chains_through_the_worker_pool() {
    // 600 active chains of 1,024 engages the threaded broadcast path on
    // multi-core hosts; chains 600..1024 are fully power-gated, and 1,024
    // chains span many 16-lane blocks per shard.
    let ops = [
        VectorOp::Add {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Mslt {
            vd: 3,
            vs1: 1,
            vs2: 2,
            signed: true,
        },
        VectorOp::RedSum { vd: 3, vs: 1 },
        VectorOp::MseqScalar {
            vd: 3,
            vs1: 1,
            rs: 0x7F,
        },
    ];
    for op in &ops {
        assert_block_matches_scalar(op, 32, 0, 600, 1024);
    }
}

#[test]
fn context_switch_round_trips_through_chain_block() {
    // Save/restore through the block pack/unpack paths must reproduce
    // every chain bit-exactly — including mid-program metadata rows,
    // tags and accumulators left behind by a previous instruction.
    let mut csb = seeded_csb(64);
    csb.set_active_window(3, 1500);
    let compiled = CompiledOp::compile(
        &VectorOp::Add {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        32,
    );
    csb.execute_program(compiled.program());

    let before: Vec<Chain> = (0..64).map(|c| csb.chain(c)).collect();
    let snap = csb.save_registers();

    // Trash the state with a different op and window, then restore.
    csb.set_active_window(0, csb.max_vl());
    let trash = CompiledOp::compile(&VectorOp::Broadcast { vd: 3, rs: !0 }, 32);
    csb.execute_program(trash.program());
    csb.restore_registers(&snap);

    for (c, want) in before.iter().enumerate() {
        assert_eq!(&csb.chain(c), want, "chain {c} after restore");
    }
    // A second capture of the restored state is bit-identical.
    assert_eq!(csb.save_registers(), snap);
}
