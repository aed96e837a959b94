//! Differential suite for cross-instruction microprogram fusion: a
//! machine with fusion enabled (default `fusion_window`) must be
//! bit-identical — memory image, cycle count, lane-op/VCU/VMU/HBM
//! accounting, microop ledger — to the same machine with fusion
//! disabled (`fusion_window = 1`, the exact legacy per-op path).
//!
//! Coverage: every vector instruction the ISA encodes (fusible compute
//! ops and every barrier class: reductions, scalar element reads,
//! loads/stores, `vsetvli`/`vsetstart`), SEW 8/16/32, masked windows,
//! tail strips, a context switch landing mid-window, and fault-mode
//! execution with the parity machinery armed.

use cape_core::{CapeConfig, CapeMachine, FaultConfig, FaultStats, MachineCounters, RunReport};
use cape_cp::SliceOutcome;
use cape_isa::{Program, Reg, Sew, VAluOp, VReg};
use cape_mem::MainMemory;

const CHAINS: usize = 4;
const IN_A: u64 = 0x1000;
const IN_B: u64 = 0x4000;
const OUT: u64 = 0x8000;
const SCALAR_OUT: u64 = 0xf000;

const ALL_VALU: [VAluOp; 14] = [
    VAluOp::Add,
    VAluOp::Sub,
    VAluOp::Mul,
    VAluOp::And,
    VAluOp::Or,
    VAluOp::Xor,
    VAluOp::Mseq,
    VAluOp::Msne,
    VAluOp::Mslt,
    VAluOp::Msltu,
    VAluOp::Min,
    VAluOp::Minu,
    VAluOp::Max,
    VAluOp::Maxu,
];

fn config(fusion_window: usize) -> CapeConfig {
    let mut c = CapeConfig::tiny(CHAINS);
    c.fusion_window = fusion_window;
    c
}

fn memory(n: usize) -> MainMemory {
    let mut mem = MainMemory::new();
    let a: Vec<u32> = (0..n as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let b: Vec<u32> = (0..n as u32)
        .map(|i| i.wrapping_mul(40_503) ^ 0x5a5a)
        .collect();
    mem.write_u32_slice(IN_A, &a);
    mem.write_u32_slice(IN_B, &b);
    mem
}

/// A strip-mined kernel that runs *every* vector instruction each
/// iteration — all fourteen ALU ops in `.vv` and `.vx` form, the
/// multiply-accumulate, shifts, moves, `vid`, a mask compute plus a
/// masked merge — folding everything into one xor accumulator so any
/// divergence lands in memory. After the loop, every barrier class
/// fires: reduction, population count, first-set, scalar element read,
/// and an explicit `vsetstart`.
fn all_ops_program(sew: Sew, n: usize) -> Program {
    let mut p = Program::builder();
    p.li(Reg::S0, n as i64);
    p.li(Reg::S1, IN_A as i64);
    p.li(Reg::S2, IN_B as i64);
    p.li(Reg::S3, OUT as i64);
    p.li(Reg::S4, 29);
    p.li(Reg::A0, SCALAR_OUT as i64);
    p.vsetvli_sew(Reg::T0, Reg::S0, sew);
    p.vmv_vx(VReg::V20, Reg::ZERO); // xor accumulator
    p.vmv_vx(VReg::V21, Reg::ZERO); // vmacc accumulator
    p.label("loop");
    p.vsetvli_sew(Reg::T0, Reg::S0, sew);
    p.vle32(VReg::V1, Reg::S1);
    p.vle32(VReg::V2, Reg::S2);
    for op in ALL_VALU {
        p.vop_vv(op, VReg::V3, VReg::V1, VReg::V2);
        p.vxor_vv(VReg::V20, VReg::V20, VReg::V3);
        p.vop_vx(op, VReg::V4, VReg::V1, Reg::S4);
        p.vxor_vv(VReg::V20, VReg::V20, VReg::V4);
    }
    p.vmacc_vv(VReg::V21, VReg::V1, VReg::V2);
    p.vrsub_vx(VReg::V5, VReg::V1, Reg::S4);
    p.vxor_vv(VReg::V20, VReg::V20, VReg::V5);
    p.vsra_vi(VReg::V6, VReg::V2, 3);
    p.vxor_vv(VReg::V20, VReg::V20, VReg::V6);
    p.vsll_vi(VReg::V7, VReg::V1, 2);
    p.vxor_vv(VReg::V20, VReg::V20, VReg::V7);
    p.vsrl_vi(VReg::V8, VReg::V2, 1);
    p.vxor_vv(VReg::V20, VReg::V20, VReg::V8);
    p.vid(VReg::V9);
    p.vxor_vv(VReg::V20, VReg::V20, VReg::V9);
    p.vmv_vv(VReg::V10, VReg::V1);
    p.vxor_vv(VReg::V20, VReg::V20, VReg::V10);
    p.vmv_vx(VReg::V11, Reg::S4);
    p.vxor_vv(VReg::V20, VReg::V20, VReg::V11);
    // Masked window: compute a data-dependent mask, then merge on it.
    p.vmslt_vv(VReg::V0, VReg::V1, VReg::V2);
    p.vmerge(VReg::V12, VReg::V1, VReg::V2);
    p.vxor_vv(VReg::V20, VReg::V20, VReg::V12);
    p.vxor_vv(VReg::V20, VReg::V20, VReg::V21);
    p.vse32(VReg::V20, Reg::S3);
    p.sub(Reg::S0, Reg::S0, Reg::T0);
    p.slli(Reg::T1, Reg::T0, 2);
    p.add(Reg::S1, Reg::S1, Reg::T1);
    p.add(Reg::S2, Reg::S2, Reg::T1);
    p.add(Reg::S3, Reg::S3, Reg::T1);
    p.bnez(Reg::S0, "loop");
    // Every scalar-read barrier class, values pinned into memory.
    p.vredsum(VReg::V22, VReg::V20, VReg::V21);
    p.vmv_xs(Reg::T4, VReg::V22);
    p.sw(Reg::T4, 0, Reg::A0);
    p.vcpop(Reg::T2, VReg::V0);
    p.sw(Reg::T2, 4, Reg::A0);
    p.vfirst(Reg::T3, VReg::V0);
    p.sw(Reg::T3, 8, Reg::A0);
    p.vsetstart(Reg::ZERO);
    p.vadd_vv(VReg::V23, VReg::V20, VReg::V12);
    p.vse32(VReg::V23, Reg::S3);
    p.halt();
    p.build().expect("builds")
}

fn run_with(fusion_window: usize, program: &Program, n: usize) -> (MainMemory, RunReport) {
    let mut machine = CapeMachine::new(config(fusion_window));
    let mut mem = memory(n);
    let report = machine.run(program, &mut mem).expect("runs");
    (mem, report)
}

/// Everything in a report that fused execution must reproduce exactly.
/// Energy is an f64 accumulation charged in the same order on both
/// paths, so even it is compared exactly.
fn assert_reports_identical(fused: &RunReport, plain: &RunReport, what: &str) {
    assert_eq!(fused.cycles, plain.cycles, "{what}: cycles");
    assert_eq!(fused.cp, plain.cp, "{what}: cp stats");
    assert_eq!(fused.microops, plain.microops, "{what}: microop ledger");
    assert_eq!(fused.lane_ops, plain.lane_ops, "{what}: lane ops");
    assert_eq!(fused.vmu_cycles, plain.vmu_cycles, "{what}: vmu cycles");
    assert_eq!(fused.vcu_cycles, plain.vcu_cycles, "{what}: vcu cycles");
    assert_eq!(
        fused.hbm_bytes_read, plain.hbm_bytes_read,
        "{what}: hbm reads"
    );
    assert_eq!(
        fused.hbm_bytes_written, plain.hbm_bytes_written,
        "{what}: hbm writes"
    );
    assert_eq!(
        fused.program_cache_hits + fused.program_cache_misses,
        plain.program_cache_hits + plain.program_cache_misses,
        "{what}: per-op cache traffic"
    );
    assert!(
        (fused.csb_energy_uj - plain.csb_energy_uj).abs()
            <= 1e-12 * plain.csb_energy_uj.abs().max(1.0),
        "{what}: energy {} vs {}",
        fused.csb_energy_uj,
        plain.csb_energy_uj
    );
}

fn assert_memories_identical(fused: &MainMemory, plain: &MainMemory, n: usize, what: &str) {
    assert_eq!(
        fused.read_u32_slice(OUT, n),
        plain.read_u32_slice(OUT, n),
        "{what}: output region"
    );
    assert_eq!(
        fused.read_u32_slice(SCALAR_OUT, 3),
        plain.read_u32_slice(SCALAR_OUT, 3),
        "{what}: scalar barrier results"
    );
}

#[test]
fn every_vector_op_fuses_bit_identically_across_sews() {
    for sew in [Sew::E8, Sew::E16, Sew::E32] {
        // 64 fills strips exactly; 205 leaves a ragged tail strip.
        for n in [64usize, 205] {
            let what = format!("sew={sew:?} n={n}");
            let program = all_ops_program(sew, n);
            let (fused_mem, fused) = run_with(32, &program, n);
            let (plain_mem, plain) = run_with(1, &program, n);
            assert_reports_identical(&fused, &plain, &what);
            assert_memories_identical(&fused_mem, &plain_mem, n, &what);
            assert!(fused.fused_windows > 0, "{what}: windows actually fused");
            assert!(
                fused.fused_joins_saved >= fused.fused_windows,
                "{what}: every window saves at least one join"
            );
            assert_eq!(plain.fused_windows, 0, "{what}: window=1 disables fusion");
            assert_eq!(plain.fused_joins_saved, 0, "{what}");
        }
    }
}

/// A straight-line kernel whose single fusion window genuinely mixes
/// element widths: unchanged-`vl` `vsetvli`s retarget SEW mid-window
/// without flushing, so the e32, e16 and e8 ops all land in one fused
/// super-program.
fn mixed_sew_program(n: usize) -> Program {
    let mut p = Program::builder();
    p.li(Reg::S0, n as i64);
    p.li(Reg::S1, IN_A as i64);
    p.li(Reg::S2, IN_B as i64);
    p.li(Reg::S3, OUT as i64);
    p.li(Reg::S4, 29);
    p.li(Reg::A0, SCALAR_OUT as i64);
    p.vsetvli_sew(Reg::T0, Reg::S0, Sew::E32);
    p.vle32(VReg::V1, Reg::S1);
    p.vle32(VReg::V2, Reg::S2);
    p.vadd_vv(VReg::V3, VReg::V1, VReg::V2);
    p.vxor_vv(VReg::V4, VReg::V3, VReg::V1);
    p.vsetvli_sew(Reg::T1, Reg::S0, Sew::E16); // same vl: joins the window
    p.vop_vv(VAluOp::Sub, VReg::V5, VReg::V4, VReg::V2);
    p.vop_vv(VAluOp::And, VReg::V6, VReg::V5, VReg::V3);
    p.vsetvli_sew(Reg::T1, Reg::S0, Sew::E8); // same vl again
    p.vop_vx(VAluOp::Add, VReg::V7, VReg::V1, Reg::S4);
    p.vxor_vv(VReg::V8, VReg::V7, VReg::V6);
    p.vsetvli_sew(Reg::T1, Reg::S0, Sew::E32);
    p.vse32(VReg::V8, Reg::S3); // VMU barrier: the window lands here
    p.vredsum(VReg::V9, VReg::V8, VReg::V3);
    p.vmv_xs(Reg::T4, VReg::V9);
    p.sw(Reg::T4, 0, Reg::A0);
    p.halt();
    p.build().expect("builds")
}

#[test]
fn mixed_sew_windows_fuse_without_a_vsetvli_flush() {
    let n = 64;
    let program = mixed_sew_program(n);
    let (fused_mem, fused) = run_with(32, &program, n);
    let (plain_mem, plain) = run_with(1, &program, n);
    assert_reports_identical(&fused, &plain, "mixed sew");
    assert_memories_identical(&fused_mem, &plain_mem, n, "mixed sew");
    // All six compute ops — spanning three element widths — formed one
    // window, and no vsetvli ever flushed it.
    assert_eq!(fused.fused_windows, 1, "one mixed-SEW window");
    assert_eq!(fused.fused_ops, 6);
    assert_eq!(fused.window_flushes.vsetvli, 0, "no effective vl change");
    assert_eq!(fused.window_flushes.vmu, 1, "the store flushed it");
}

/// Counter fields a sliced, context-switched run must reproduce exactly
/// (fusion bookkeeping excluded — that is the one intentional delta).
fn assert_counters_identical(fused: &MachineCounters, plain: &MachineCounters, what: &str) {
    assert_eq!(fused.lane_ops, plain.lane_ops, "{what}: lane ops");
    assert_eq!(fused.vmu_cycles, plain.vmu_cycles, "{what}: vmu cycles");
    assert_eq!(fused.vcu_cycles, plain.vcu_cycles, "{what}: vcu cycles");
    assert_eq!(
        fused.hbm_bytes_read, plain.hbm_bytes_read,
        "{what}: hbm reads"
    );
    assert_eq!(
        fused.hbm_bytes_written, plain.hbm_bytes_written,
        "{what}: hbm writes"
    );
    assert_eq!(fused.microops, plain.microops, "{what}: microop ledger");
    assert!(
        (fused.energy_pj - plain.energy_pj).abs() <= 1e-12 * plain.energy_pj.abs().max(1.0),
        "{what}: energy"
    );
}

/// Two jobs interleaved on one machine with a vector budget small
/// enough that every preemption lands *inside* an open fusion window:
/// the context switch must flush the window and the result must still
/// be bit-identical to the per-op machine doing the same dance.
fn run_interleaved(fusion_window: usize, n: usize) -> (Vec<Vec<u32>>, MachineCounters, FaultStats) {
    let mut machine = CapeMachine::new(config(fusion_window));
    let programs = [all_ops_program(Sew::E32, n), all_ops_program(Sew::E16, n)];
    let mut mems = [memory(n), memory(n)];
    let mut cps = [
        machine.new_control_processor(),
        machine.new_control_processor(),
    ];
    let mut ctxs = [machine.fresh_context(), machine.fresh_context()];
    let mut done = [false, false];
    while !(done[0] && done[1]) {
        for j in 0..2 {
            if done[j] {
                continue;
            }
            machine.restore_context(&ctxs[j]);
            let outcome = machine
                .run_slice(&mut cps[j], &programs[j], &mut mems[j], 3, u64::MAX)
                .expect("slices run clean");
            ctxs[j] = machine.save_context();
            if outcome == SliceOutcome::Halted {
                done[j] = true;
            }
        }
    }
    let outputs = mems
        .iter()
        .map(|m| {
            let mut region = m.read_u32_slice(OUT, n);
            region.extend(m.read_u32_slice(SCALAR_OUT, 3));
            region
        })
        .collect();
    (outputs, machine.counters(), machine.fault_stats())
}

#[test]
fn context_switch_mid_window_flushes_and_stays_bit_identical() {
    let n = 97;
    let (fused_out, fused, fused_faults) = run_interleaved(32, n);
    let (plain_out, plain, plain_faults) = run_interleaved(1, n);
    assert_eq!(fused_out, plain_out, "sliced outputs diverged");
    assert_counters_identical(&fused, &plain, "sliced");
    assert_eq!(fused_faults, plain_faults, "sliced: fault counters");
    // A 3-op slice budget means windows are cut by preemption, so
    // fusion still forms (small) windows.
    assert!(fused.fused_windows > 0, "preempted windows still fuse");
    assert_eq!(plain.fused_windows, 0);
}

#[test]
fn fault_mode_with_parity_armed_is_bit_identical() {
    let n = 205;
    let program = all_ops_program(Sew::E32, n);
    let run = |fusion_window: usize| {
        let mut machine = CapeMachine::new(config(fusion_window));
        machine.enable_fault_injection(FaultConfig::quiescent(2));
        let mut mem = memory(n);
        let report = machine.run(&program, &mut mem).expect("runs");
        (mem, report, machine.fault_stats())
    };
    let (fused_mem, fused, fused_faults) = run(32);
    let (plain_mem, plain, plain_faults) = run(1);
    assert_reports_identical(&fused, &plain, "fault mode");
    assert_memories_identical(&fused_mem, &plain_mem, n, "fault mode");
    assert_eq!(
        fused_faults, plain_faults,
        "parity machinery saw identical traffic"
    );
    assert!(fused.fused_windows > 0);
}
