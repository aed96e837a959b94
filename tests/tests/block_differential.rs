//! Differential tests for the block-SoA kernel layer: the block-backed
//! broadcast path inside [`Csb`](cape_csb::Csb) must be bit-identical to
//! the scalar [`Chain`] reference model — same reduction sums, same
//! register file, same tags/accumulators/metadata, same recorded microop
//! stats — for every vector operation, every SEW, and masked/tail
//! windows, and a `save_registers` / `restore_registers` context switch
//! through the block layout must round-trip bit-exactly.

mod common;

use cape_csb::{scalar_sweep, Chain, FaultConfig, MicroProgram};
use cape_ucode::{fuse_window, CompiledOp, VectorOp};
use common::{all_ops, seeded_csb};

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
    let ref_sums = scalar_sweep(&mut reference, &windows, compiled.program().ops());

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

#[test]
fn bit_step_counts_are_pinned() {
    // Every truth-table bit position of these passes runs as one fused
    // plan op. A shape the exhaustive check stops proving falls back to
    // its searches and updates, which these exact counts catch.
    let (vd, vs1, vs2) = (3, 1, 2);
    let steps = |op: VectorOp, sew: usize| CompiledOp::compile(&op, sew).program().bit_steps();
    for sew in [8usize, 16, 32] {
        let tri = sew * (sew + 1) / 2;
        assert_eq!(
            steps(VectorOp::Mul { vd, vs1, vs2 }, sew),
            tri,
            "vmul.vv e{sew}"
        );
        assert_eq!(
            steps(VectorOp::Macc { vd, vs1, vs2 }, sew),
            tri,
            "vmacc e{sew}"
        );
        assert_eq!(
            steps(VectorOp::Add { vd, vs1, vs2 }, sew),
            sew,
            "vadd.vv e{sew}"
        );
        assert_eq!(
            steps(VectorOp::Sub { vd, vs1, vs2 }, sew),
            sew,
            "vsub.vv e{sew}"
        );
        let rs = 0x5A5A_A5A5;
        assert_eq!(
            steps(VectorOp::AddScalar { vd, vs1, rs }, sew),
            sew,
            "vadd.vx e{sew}"
        );
        assert_eq!(
            steps(VectorOp::SubScalar { vd, vs1, rs }, sew),
            sew,
            "vsub.vx e{sew}"
        );
        assert_eq!(
            steps(VectorOp::RsubScalar { vd, vs1, rs }, sew),
            sew,
            "vrsub.vx e{sew}"
        );
        assert_eq!(
            steps(VectorOp::Increment { vd }, sew),
            sew,
            "increment e{sew}"
        );
    }
    assert_eq!(steps(VectorOp::Mul { vd, vs1, vs2 }, 8), 36);
    assert_eq!(steps(VectorOp::Mul { vd, vs1, vs2 }, 32), 528);
    assert_eq!(steps(VectorOp::Macc { vd, vs1, vs2 }, 32), 528);
    // vd aliasing the subtrahend lowers to NOT plus an incrementing adder.
    assert_eq!(steps(VectorOp::Sub { vd: 2, vs1, vs2 }, 32), 32);
    // One pass per set multiplier bit j, of 32 - j steps each.
    let rs = 0xDEAD_BEEF;
    assert_eq!(steps(VectorOp::MulScalar { vd, vs1, rs }, 32), 410);
    // What the kernels run: the clears plus one op per bit-step.
    let mul = CompiledOp::compile(&VectorOp::Mul { vd, vs1, vs2 }, 32);
    assert_eq!((mul.program().len(), mul.program().plan_len()), (4225, 561));
    let add = CompiledOp::compile(&VectorOp::Add { vd, vs1, vs2 }, 32);
    assert_eq!((add.program().len(), add.program().plan_len()), (259, 36));
}

/// Runs `program` on seeded CSBs against scalar reference chains: 4
/// chains (one block at span 4) and 20 chains (a span-16 block and a
/// span-4 one), on full and partial windows, clean and armed, checking
/// `parity_consistent()` after every armed run.
fn assert_window_matches_scalar(program: &MicroProgram) {
    for (chains, vstart, vl) in [
        (4usize, 0usize, 128usize),
        (4, 5, 99),
        (20, 0, 640),
        (20, 7, 384),
    ] {
        for armed in [false, true] {
            let mut csb = seeded_csb(chains);
            if armed {
                csb.enable_fault_injection(FaultConfig::quiescent(1));
            }
            csb.set_active_window(vstart, vl);
            let mut reference: Vec<Chain> = (0..chains).map(|c| csb.chain(c)).collect();
            let windows: Vec<u32> = (0..chains).map(|c| csb.window(c)).collect();
            let sums = csb.execute_program(program);
            let ctx = format!("chains={chains} window={vstart}..{vl} armed={armed}");
            assert_eq!(
                sums,
                scalar_sweep(&mut reference, &windows, program.ops()),
                "{ctx}"
            );
            assert_eq!(csb.stats(), program.stats(), "microop stats: {ctx}");
            for (c, want) in reference.iter().enumerate() {
                assert_eq!(&csb.chain(c), want, "chain {c}: {ctx}");
            }
            if armed {
                assert!(
                    csb.parity_consistent(),
                    "parity after the fused window: {ctx}"
                );
            }
        }
    }
}

#[test]
fn fused_vmul_window_matches_scalar_chains_at_both_spans_armed_and_clean() {
    // A window of vmul.vv and a following op runs its parts' bit-steps
    // whole. Its dead stores are the carry-row clears of the subarrays a
    // shift-add pass never reads: pass j reads and writes the carry rows
    // of subarrays j and up only, and the next clear covers the carry
    // row again, so the clear before pass j has j dead writes, 496 in all
    // (j = 0..31).
    let mul = CompiledOp::compile(
        &VectorOp::Mul {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        32,
    );
    let next = CompiledOp::compile(
        &VectorOp::Add {
            vd: 4,
            vs1: 3,
            vs2: 1,
        },
        32,
    );
    let window = fuse_window(&[&mul, &next], false);
    let program: &MicroProgram = window.program();
    assert_eq!(
        program.dead_stores(),
        (0..32).sum::<u32>(),
        "the carry-row clears no pass reads are dead"
    );
    assert_eq!(program.bit_steps(), 528 + 32);
    assert_eq!(program.len(), mul.program().len() + next.program().len());
    // The dead stores sit in general updates, not in bit-steps: the
    // window runs exactly its parts' plan ops.
    assert_eq!(
        program.plan_len(),
        mul.program().plan_len() + next.program().plan_len()
    );
    assert_window_matches_scalar(program);
}

#[test]
fn window_keeps_the_bit_steps_of_a_dead_sum_whole() {
    // v3 is written by the add and fully overwritten by the broadcast,
    // but each of the add's bit-steps also carries into the next
    // subarray and latches its tags, which nothing in the window covers.
    // A bit-step is kept or dropped whole, so all 32 run.
    let add = CompiledOp::compile(
        &VectorOp::Add {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        32,
    );
    let broadcast = CompiledOp::compile(&VectorOp::Broadcast { vd: 3, rs: 0xab }, 32);
    let window = fuse_window(&[&add, &broadcast], false);
    let program: &MicroProgram = window.program();
    assert_eq!(program.dead_stores(), 0);
    assert_eq!(
        (add.program().plan_len(), broadcast.program().plan_len()),
        (36, 1)
    );
    assert_eq!(program.plan_len(), 37);
    assert_eq!(program.bit_steps(), 32);
    assert_window_matches_scalar(program);
}
