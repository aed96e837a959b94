//! Differential tests for the sequencer's program path: an instruction
//! run through [`Sequencer::run_program`] — one broadcast of its compiled
//! microop program, then the post-processing step that turns reduction
//! sums into the scalar result and finalizes `vredsum`/`vid`
//! destinations — must match the scalar [`Chain`] reference model with
//! the instruction's result semantics applied element by element: same
//! scalar result, same microop stats and the same state in every chain,
//! for every vector operation, every SEW, and masked/tail windows.

mod common;

use cape_csb::{scalar_sweep, Chain, Csb};
use cape_ucode::{CompiledOp, Sequencer, VectorOp};
use common::{all_ops, seeded_csb};

/// Applies `op`'s post-broadcast semantics to the reference chains from
/// element reads, independently of the sequencer's post-processing, and
/// returns the instruction's scalar result.
fn reference_post(op: &VectorOp, sew: usize, csb: &Csb, chains: &mut [Chain]) -> Option<i64> {
    let mask = if sew == 32 { u32::MAX } else { (1 << sew) - 1 };
    let mut window = csb.vstart()..csb.vl();
    let read = |chains: &[Chain], reg: usize, e: usize| {
        let at = csb.locate(e);
        chains[at.chain].read_element(reg, at.col)
    };
    match *op {
        VectorOp::RedSum { vd, vs } => {
            let sum = window.fold(0u32, |s, e| s.wrapping_add(read(chains, vs, e))) & mask;
            let at = csb.locate(0);
            chains[at.chain].write_element(vd, at.col, sum);
            Some(i64::from(sum))
        }
        VectorOp::Cpop { vs } => {
            Some(window.filter(|&e| read(chains, vs, e) & 1 == 1).count() as i64)
        }
        VectorOp::First { vs } => Some(
            window
                .find(|&e| read(chains, vs, e) & 1 == 1)
                .map_or(-1, |e| e as i64),
        ),
        VectorOp::Vid { vd } => {
            for e in window {
                let at = csb.locate(e);
                chains[at.chain].write_element(vd, at.col, e as u32 & mask);
            }
            None
        }
        _ => None,
    }
}

/// Runs `op` through [`Sequencer::run_program`] and through scalar
/// reference chains seeded with identical state, then asserts bit-exact
/// agreement of the scalar result, the microop stats and every chain.
fn assert_program_matches_scalar(
    op: &VectorOp,
    sew: usize,
    vstart: usize,
    vl: usize,
    chains: usize,
) {
    let mut csb = seeded_csb(chains);
    csb.set_active_window(vstart, vl);
    let mut reference: Vec<Chain> = (0..chains).map(|c| csb.chain(c)).collect();
    let windows: Vec<u32> = (0..chains).map(|c| csb.window(c)).collect();

    let compiled = CompiledOp::compile(op, sew);
    let outcome = Sequencer::with_width(&mut csb, sew).run_program(&compiled);
    scalar_sweep(&mut reference, &windows, compiled.program().ops());
    let scalar = reference_post(op, sew, &csb, &mut reference);

    let ctx = format!("{op:?} sew={sew} window={vstart}..{vl} chains={chains}");
    assert_eq!(outcome.scalar, scalar, "scalar result: {ctx}");
    assert_eq!(
        outcome.stats,
        compiled.program().stats(),
        "microop stats: {ctx}"
    );
    for (c, want) in reference.iter().enumerate() {
        assert_eq!(&csb.chain(c), want, "chain {c}: {ctx}");
    }
}

#[test]
fn every_op_matches_at_every_sew_full_window() {
    for op in &all_ops() {
        for sew in [8usize, 16, 32] {
            assert_program_matches_scalar(op, sew, 0, 128, 4);
        }
    }
}

#[test]
fn every_op_matches_on_masked_and_tail_windows() {
    // vstart > 0 (restart), vl < max (tail), and both at once.
    for op in &all_ops() {
        for &(vstart, vl) in &[(0usize, 77usize), (13, 128), (5, 99)] {
            assert_program_matches_scalar(op, 32, vstart, vl, 4);
        }
    }
}

#[test]
fn representative_ops_match_through_the_worker_pool() {
    // 600 chains with a partial window: enough active chains that the
    // CSB's threaded broadcast path engages (when the host has >1 CPU),
    // with some chains fully masked off.
    let ops = [
        VectorOp::Add {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::MseqScalar {
            vd: 3,
            vs1: 1,
            rs: 0x7F,
        },
        VectorOp::RedSum { vd: 3, vs: 1 },
        VectorOp::Cpop { vs: 4 },
        VectorOp::Merge {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
    ];
    let vl = 600 * 32 - 1000;
    for op in &ops {
        assert_program_matches_scalar(op, 32, 3, vl, 600);
    }
}
