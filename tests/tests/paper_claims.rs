//! Checks of the paper's quantitative claims that must hold in this
//! reproduction (the per-figure shape checks live in EXPERIMENTS.md and
//! the bench binaries; these are the always-on invariants).

use cape_core::{microop_energy_pj, CapeConfig, Roofline};
use cape_csb::{Csb, CsbGeometry, ReductionTree};
use cape_ucode::metrics::{measure, paper_row};
use cape_ucode::truth_table::BitSerialAlgorithm;
use cape_ucode::{Sequencer, VectorOp, VectorOpKind};
use cape_vcu::{ProgramCache, Vcu};

#[test]
fn table1_cycle_formulas_match_the_paper() {
    let rows = [
        (VectorOpKind::Add, 258u64),
        (VectorOpKind::Sub, 258),
        (VectorOpKind::Mul, 3968),
        (VectorOpKind::RedSum, 32),
        (VectorOpKind::And, 3),
        (VectorOpKind::Or, 3),
        (VectorOpKind::Xor, 4),
        (VectorOpKind::MseqVx, 33),
        (VectorOpKind::MseqVv, 36),
        (VectorOpKind::Mslt, 102),
        (VectorOpKind::Merge, 4),
    ];
    for (kind, cycles) in rows {
        let row = paper_row(kind).expect("listed in Table I");
        assert_eq!(row.total_cycles.eval(32), cycles, "{kind:?}");
    }
}

#[test]
fn emulated_microops_track_table1_within_ten_percent_for_bit_serial_ops() {
    for (kind, paper) in [
        (VectorOpKind::Add, 258i64),
        (VectorOpKind::Sub, 258),
        (VectorOpKind::Mul, 3968),
        (VectorOpKind::MseqVv, 36),
        (VectorOpKind::MseqVx, 33),
    ] {
        let ours = measure(kind).microops as i64;
        let err = (ours - paper).abs() as f64 / paper as f64;
        assert!(err < 0.10, "{kind:?}: {ours} vs paper {paper} ({err:.2})");
    }
}

#[test]
fn bit_parallel_ops_match_table1_exactly() {
    for (kind, paper) in [
        (VectorOpKind::And, 3),
        (VectorOpKind::Or, 3),
        (VectorOpKind::Xor, 4),
        (VectorOpKind::Merge, 4),
    ] {
        assert_eq!(measure(kind).microops, paper, "{kind:?}");
    }
}

#[test]
fn truth_table_sizes_match_table1() {
    assert_eq!(BitSerialAlgorithm::adder().entries(), 5);
    assert_eq!(BitSerialAlgorithm::subtractor().entries(), 5);
    assert_eq!(BitSerialAlgorithm::adder().max_search_rows(), 3);
}

#[test]
fn redsum_is_roughly_eight_times_faster_than_vadd() {
    // Section V-G: "A vector redsum instruction is thus eight times
    // faster than an element-wise vector addition."
    let vcu = Vcu::new(1024);
    let mut cache = ProgramCache::default();
    let mut csb = Csb::new(CsbGeometry::new(1024));
    csb.write_vector(1, &[1, 2, 3]);
    csb.write_vector(2, &[4, 5, 6]);
    let mut cycles = |op: VectorOp| vcu.execute(&mut csb, &op, 32, &mut cache).unwrap().cycles;
    let add = cycles(VectorOp::Add {
        vd: 3,
        vs1: 1,
        vs2: 2,
    });
    let red = cycles(VectorOp::RedSum { vd: 4, vs: 1 });
    let ratio = add as f64 / red as f64;
    assert!((4.0..10.0).contains(&ratio), "redsum advantage {ratio}");
}

#[test]
fn reduction_tree_matches_the_synthesized_design() {
    // Section VI-C: 5 pipeline stages for 1,024 chains.
    assert_eq!(ReductionTree::new(1024).stages(), 5);
}

#[test]
fn vmul_performs_thousands_of_searches_and_updates() {
    // Section VI-B: vmul "performs more than 3,000 searches and updates,
    // combined".
    let m = measure(VectorOpKind::Mul);
    assert!(m.searches + m.updates > 3000, "{}", m.searches + m.updates);
}

#[test]
fn capacity_arithmetic_matches_the_paper() {
    assert_eq!(CapeConfig::cape32k().max_vl(), 32_768);
    assert_eq!(CapeConfig::cape131k().max_vl(), 131_072);
    // Section VII: 512 KV pairs per chain, ~half a million in CAPE32k.
    let kv = cape_memmode::KvStore::new(CsbGeometry::cape32k());
    assert_eq!(kv.capacity(), 524_288);
}

#[test]
fn derived_instruction_energies_track_table1() {
    // The Table II microop energies, multiplied by emulated microop
    // counts, must land near Table I's per-lane energies.
    let cases = [
        (
            VectorOp::Add {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
            8.4,
            1.5,
        ),
        (
            VectorOp::Mul {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
            99.9,
            50.0,
        ),
        (
            VectorOp::And {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
            0.4,
            0.2,
        ),
        (
            VectorOp::Merge {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
            0.5,
            0.3,
        ),
        (
            VectorOp::Mslt {
                vd: 3,
                vs1: 1,
                vs2: 2,
                signed: true,
            },
            3.2,
            2.0,
        ),
    ];
    for (op, paper, tol) in cases {
        let mut csb = Csb::new(CsbGeometry::new(1));
        let a: Vec<u32> = (0..32u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        csb.write_vector(1, &a);
        csb.write_vector(2, &a);
        let out = Sequencer::new(&mut csb).execute(&op);
        let per_lane = microop_energy_pj(&out.stats, 1) / 32.0;
        assert!(
            (per_lane - paper).abs() <= tol,
            "{op:?}: {per_lane:.2} pJ/lane vs paper {paper}"
        );
    }
}

#[test]
fn cape_clock_comes_from_the_read_critical_path() {
    // 237 ps read -> 4.22 GHz, derated 65% -> 2.7 GHz.
    let raw_ghz = 1000.0 / cape_core::TABLE2_DELAYS.read_ps;
    assert!((raw_ghz - 4.22).abs() < 0.01);
    assert_eq!(CapeConfig::cape32k().freq_ghz, 2.7);
}

#[test]
fn roofline_ridge_sits_between_streaming_and_search_kernels() {
    let r = Roofline::cape(&CapeConfig::cape32k());
    // Streaming kernels (~0.08 ops/B) must classify memory-bound;
    // CSB-resident compute (>10 ops/B) compute-bound.
    assert!(0.08 < r.ridge_intensity());
    assert!(r.ridge_intensity() < 10.0);
}
