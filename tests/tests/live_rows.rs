//! Live-row context switches: a `save_registers` copies only the rows the
//! CSB's live-row mask covers, and a `restore_registers` rewrites only the
//! rows live on either side. Random sequences of broadcasts, bulk and
//! single-element data transfers, raw row writes, saves into two slots
//! and restores of either slot or of a zeroed snapshot must leave every
//! chain exactly as it was at the matching save (or fresh after a zeroed
//! restore). In debug builds every save also checks that no row outside
//! the mask holds a nonzero bit.
//!
//! A scalar [`Chain`] model runs every step alongside the CSB, so the
//! state a save captured is known independently of the CSB under test.

mod common;

use cape_csb::{scalar_sweep, Chain, Csb, CsbSnapshot, MicroOp, TOTAL_ROWS};
use cape_ucode::CompiledOp;
use common::{all_ops, seeded_csb};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Step {
    /// Broadcast `all_ops()[op]` at `sew` under a seeded window.
    Broadcast {
        op: usize,
        sew: usize,
        vstart_raw: usize,
        vl_raw: usize,
    },
    /// `write_vector_at` of seeded values over a seeded element range.
    WriteVector {
        reg: usize,
        start_raw: usize,
        len_raw: usize,
        seed: u32,
    },
    WriteElement {
        reg: usize,
        elem_raw: usize,
        value: u32,
    },
    WriteChainRow {
        chain_raw: usize,
        sub: usize,
        row: usize,
        data: u32,
        mask: u32,
    },
    Save {
        slot: usize,
    },
    /// Restore slot `Some(k)` (skipped while empty) or a zeroed snapshot.
    Restore {
        slot: Option<usize>,
    },
}

fn step() -> impl Strategy<Value = Step> {
    let ops = all_ops().len();
    prop_oneof![
        (0..ops, 0..3usize, any::<usize>(), any::<usize>()).prop_map(
            |(op, sew, vstart_raw, vl_raw)| Step::Broadcast {
                op,
                sew: 8 << sew,
                vstart_raw,
                vl_raw,
            }
        ),
        (0..32usize, any::<usize>(), any::<usize>(), any::<u32>()).prop_map(
            |(reg, start_raw, len_raw, seed)| Step::WriteVector {
                reg,
                start_raw,
                len_raw,
                seed,
            }
        ),
        (0..32usize, any::<usize>(), any::<u32>()).prop_map(|(reg, elem_raw, value)| {
            Step::WriteElement {
                reg,
                elem_raw,
                value,
            }
        }),
        (
            any::<usize>(),
            0..32usize,
            0..TOTAL_ROWS,
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(chain_raw, sub, row, data, mask)| Step::WriteChainRow {
                chain_raw,
                sub,
                row,
                data,
                mask,
            }),
        (0..2usize).prop_map(|slot| Step::Save { slot }),
        proptest::option::of(0..2usize).prop_map(|slot| Step::Restore { slot }),
    ]
}

/// Deterministic value stream for bulk writes.
fn values(seed: u32, len: usize) -> Vec<u32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        })
        .collect()
}

fn assert_chains(csb: &Csb, want: &[Chain], ctx: &str) {
    for (c, chain) in want.iter().enumerate() {
        assert_eq!(&csb.chain(c), chain, "chain {c} {ctx}");
    }
}

/// Runs `steps` on a seeded CSB of `chains` chains and on its scalar
/// model, checking every restore against the state saved into its slot.
fn run(chains: usize, steps: &[Step]) {
    let ops = all_ops();
    let mut csb = seeded_csb(chains);
    let (n, max) = (chains, csb.max_vl());
    let mut model: Vec<Chain> = (0..n).map(|c| csb.chain(c)).collect();
    let mut slots: [Option<(CsbSnapshot, Vec<Chain>)>; 2] = [None, None];
    for (i, step) in steps.iter().enumerate() {
        let ctx = format!("after step {i} ({step:?}), {chains} chains");
        match *step {
            Step::Broadcast {
                op,
                sew,
                vstart_raw,
                vl_raw,
            } => {
                let vl = vl_raw % (max + 1);
                csb.set_active_window(vstart_raw % (vl + 1), vl);
                let windows: Vec<u32> = (0..n).map(|c| csb.window(c)).collect();
                let compiled = CompiledOp::compile(&ops[op], sew);
                csb.execute_program(compiled.program());
                scalar_sweep(&mut model, &windows, compiled.program().ops());
            }
            Step::WriteVector {
                reg,
                start_raw,
                len_raw,
                seed,
            } => {
                let start = start_raw % (max + 1);
                let vals = values(seed, len_raw % (max - start + 1));
                csb.write_vector_at(reg, start, &vals);
                for (e, &v) in (start..).zip(&vals) {
                    model[e % n].write_element(reg, e / n, v);
                }
            }
            Step::WriteElement {
                reg,
                elem_raw,
                value,
            } => {
                let e = elem_raw % max;
                csb.write_element(reg, e, value);
                model[e % n].write_element(reg, e / n, value);
            }
            Step::WriteChainRow {
                chain_raw,
                sub,
                row,
                data,
                mask,
            } => {
                let c = chain_raw % n;
                csb.write_chain_row(c, sub, row, data, mask);
                let write = MicroOp::Write {
                    subarray: sub,
                    row,
                    data,
                    mask,
                };
                model[c].execute(&write, u32::MAX);
            }
            Step::Save { slot } => {
                slots[slot] = Some((csb.save_registers(), model.clone()));
            }
            Step::Restore { slot: Some(slot) } => {
                let Some((snap, saved)) = &slots[slot] else {
                    continue;
                };
                csb.restore_registers(snap);
                model.clone_from(saved);
                assert_chains(&csb, &model, &ctx);
                assert_eq!(&csb.save_registers(), snap, "resave {ctx}");
            }
            Step::Restore { slot: None } => {
                let zeroed = CsbSnapshot::zeroed(csb.geometry());
                csb.restore_registers(&zeroed);
                model = vec![Chain::new(); n];
                assert_chains(&csb, &model, &ctx);
                assert_eq!(csb.save_registers(), zeroed, "resave {ctx}");
            }
        }
    }
    assert_chains(&csb, &model, &format!("at the end, {chains} chains"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// 4 chains (one block, 12 padding lanes) and 20 chains (a full
    /// block and a padded one).
    #[test]
    fn restores_reproduce_saved_state_with_padding_lanes(
        steps in proptest::collection::vec(step(), 1..24),
    ) {
        run(4, &steps);
        run(20, &steps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// 1,024 chains: several shards on a multi-core host.
    #[test]
    fn restores_reproduce_saved_state_across_shards(
        steps in proptest::collection::vec(step(), 1..12),
    ) {
        run(1024, &steps);
    }
}
