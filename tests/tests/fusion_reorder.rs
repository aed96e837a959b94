//! Property-based differential suite for the window compiler: random
//! fusible op sequences — dense with RAW/WAR/WAW hazards on a small
//! vector-register set and salted with unchanged-`vl` `vsetvli`s that
//! retarget SEW mid-window — must execute bit-identically per-op
//! (`fusion_window = 1`) and fused (`fusion_window = 32`). Identical
//! means the full run report (cycles, CP stats, microop ledger, energy,
//! HBM traffic) and every output byte — plus the same guarantee under a
//! mid-window context switch and with the fault layer's parity
//! machinery armed.

use cape_core::{CapeConfig, CapeMachine, FaultConfig, FaultStats, MachineCounters, RunReport};
use cape_cp::SliceOutcome;
use cape_isa::{Program, Reg, Sew, VAluOp, VReg};
use cape_mem::MainMemory;
use proptest::prelude::*;

const CHAINS: usize = 4; // max_vl = 128
const IN_A: u64 = 0x1000;
const IN_B: u64 = 0x4000;
const OUT: u64 = 0x8000;
const SCALAR_OUT: u64 = 0xf000;
/// Vector registers the random body reads and writes (v1..=v8).
const BODY_REGS: u8 = 8;
/// Fixed stride between per-register output regions (max_vl words).
const OUT_STRIDE: u64 = 128 * 4;

/// One step of a random window body.
#[derive(Debug, Clone)]
enum BodyOp {
    /// A `.vv` compute op over the shared register set.
    Vv {
        op: VAluOp,
        vd: u8,
        vs1: u8,
        vs2: u8,
    },
    /// A `.vx` compute op (scalar operand preloaded in `S4`).
    Vx { op: VAluOp, vd: u8, vs1: u8 },
    /// An unchanged-`vl` `vsetvli` selecting a new element width — a
    /// window no-op, never a barrier.
    SetSew(Sew),
}

const VALU_POOL: [VAluOp; 10] = [
    VAluOp::Add,
    VAluOp::Sub,
    VAluOp::Mul,
    VAluOp::And,
    VAluOp::Or,
    VAluOp::Xor,
    VAluOp::Mseq,
    VAluOp::Mslt,
    VAluOp::Min,
    VAluOp::Maxu,
];

fn valu() -> impl Strategy<Value = VAluOp> {
    (0usize..VALU_POOL.len()).prop_map(|i| VALU_POOL[i])
}

/// Ops whose lowering rejects a destination aliasing a source (their
/// microprograms consume the sources while building the result).
fn needs_distinct_dest(op: VAluOp) -> bool {
    matches!(
        op,
        VAluOp::Mul
            | VAluOp::Mseq
            | VAluOp::Msne
            | VAluOp::Mslt
            | VAluOp::Msltu
            | VAluOp::Min
            | VAluOp::Minu
            | VAluOp::Max
            | VAluOp::Maxu
    )
}

/// Rotates `vd` away from the sources when the op demands it — keeps
/// random sequences legal without losing hazard density.
fn legal_dest(op: VAluOp, mut vd: u8, vs1: u8, vs2: u8) -> u8 {
    if needs_distinct_dest(op) {
        while vd == vs1 || vd == vs2 {
            vd = vd % BODY_REGS + 1;
        }
    }
    vd
}

fn body_op() -> impl Strategy<Value = BodyOp> {
    // The vendored proptest's union is unweighted; arms are duplicated
    // to bias toward `.vv` hazards over SEW retargeting.
    let vv = || {
        (valu(), 1..=BODY_REGS, 1..=BODY_REGS, 1..=BODY_REGS).prop_map(|(op, vd, vs1, vs2)| {
            BodyOp::Vv {
                op,
                vd: legal_dest(op, vd, vs1, vs2),
                vs1,
                vs2,
            }
        })
    };
    let vx = || {
        (valu(), 1..=BODY_REGS, 1..=BODY_REGS).prop_map(|(op, vd, vs1)| BodyOp::Vx {
            op,
            vd: legal_dest(op, vd, vs1, vs1),
            vs1,
        })
    };
    let sew = (0usize..3).prop_map(|i| BodyOp::SetSew([Sew::E8, Sew::E16, Sew::E32][i]));
    prop_oneof![vv(), vv(), vv(), vv(), vx(), vx(), sew]
}

/// A random window body: long enough to overflow one 32-op window now
/// and then, short enough to keep the differential runs cheap.
fn body() -> impl Strategy<Value = Vec<BodyOp>> {
    proptest::collection::vec(body_op(), 8..48)
}

/// Straight-line program: seed v1..=v8 (loads + broadcasts), run the
/// random body, then pin every register and a reduction into memory.
fn build_program(body: &[BodyOp], n: usize) -> Program {
    let mut p = Program::builder();
    p.li(Reg::S0, n as i64);
    p.li(Reg::S1, IN_A as i64);
    p.li(Reg::S2, IN_B as i64);
    p.li(Reg::S4, 29);
    p.li(Reg::A0, SCALAR_OUT as i64);
    p.vsetvli_sew(Reg::T0, Reg::S0, Sew::E32);
    p.vle32(VReg::V1, Reg::S1);
    p.vle32(VReg::V2, Reg::S2);
    for r in 3..=BODY_REGS {
        p.li(Reg::T2, i64::from(r) * 1103 + 7);
        p.vmv_vx(VReg::new(r), Reg::T2);
    }
    for step in body {
        match *step {
            BodyOp::Vv { op, vd, vs1, vs2 } => {
                p.vop_vv(op, VReg::new(vd), VReg::new(vs1), VReg::new(vs2));
            }
            BodyOp::Vx { op, vd, vs1 } => {
                p.vop_vx(op, VReg::new(vd), VReg::new(vs1), Reg::S4);
            }
            BodyOp::SetSew(sew) => {
                p.vsetvli_sew(Reg::T1, Reg::S0, sew);
            }
        }
    }
    p.vsetvli_sew(Reg::T1, Reg::S0, Sew::E32);
    for r in 1..=BODY_REGS {
        p.li(Reg::S3, (OUT + u64::from(r) * OUT_STRIDE) as i64);
        p.vse32(VReg::new(r), Reg::S3);
    }
    p.vredsum(VReg::V9, VReg::V8, VReg::V1);
    p.vmv_xs(Reg::T4, VReg::V9);
    p.sw(Reg::T4, 0, Reg::A0);
    p.halt();
    p.build().expect("builds")
}

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
        .map(|i| i.wrapping_mul(40_503) ^ 0xa5a5)
        .collect();
    mem.write_u32_slice(IN_A, &a);
    mem.write_u32_slice(IN_B, &b);
    mem
}

/// Every output byte the program can produce.
fn outputs(mem: &MainMemory, n: usize) -> Vec<u32> {
    let mut out = Vec::new();
    for r in 1..=u64::from(BODY_REGS) {
        out.extend(mem.read_u32_slice(OUT + r * OUT_STRIDE, n));
    }
    out.extend(mem.read_u32_slice(SCALAR_OUT, 1));
    out
}

fn run_full(
    fusion_window: usize,
    program: &Program,
    n: usize,
    faults: bool,
) -> (Vec<u32>, RunReport, FaultStats) {
    let mut machine = CapeMachine::new(config(fusion_window));
    if faults {
        machine.enable_fault_injection(FaultConfig::quiescent(2));
    }
    let mut mem = memory(n);
    let report = machine.run(program, &mut mem).expect("runs");
    (outputs(&mem, n), report, machine.fault_stats())
}

/// Interleaves the program with itself under a 3-op vector budget so
/// preemptions land inside open windows, context-switching between two
/// jobs every slice.
fn run_sliced(
    fusion_window: usize,
    program: &Program,
    n: usize,
) -> (Vec<Vec<u32>>, MachineCounters) {
    let mut machine = CapeMachine::new(config(fusion_window));
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
                .run_slice(&mut cps[j], program, &mut mems[j], 3, u64::MAX)
                .expect("slices run clean");
            ctxs[j] = machine.save_context();
            done[j] = outcome == SliceOutcome::Halted;
        }
    }
    let outs = mems.iter().map(|m| outputs(m, n)).collect();
    (outs, machine.counters())
}

fn assert_reports_identical(fused: &RunReport, plain: &RunReport, what: &str) {
    assert_eq!(fused.cycles, plain.cycles, "{what}: cycles");
    assert_eq!(fused.cp, plain.cp, "{what}: cp stats");
    assert_eq!(fused.microops, plain.microops, "{what}: microop ledger");
    assert_eq!(fused.lane_ops, plain.lane_ops, "{what}: lane ops");
    assert_eq!(fused.vmu_cycles, plain.vmu_cycles, "{what}: vmu cycles");
    assert_eq!(fused.vcu_cycles, plain.vcu_cycles, "{what}: vcu cycles");
    assert_eq!(fused.hbm_bytes_read, plain.hbm_bytes_read, "{what}: hbm r");
    assert_eq!(
        fused.hbm_bytes_written, plain.hbm_bytes_written,
        "{what}: hbm w"
    );
    assert!(
        (fused.csb_energy_uj - plain.csb_energy_uj).abs()
            <= 1e-12 * plain.csb_energy_uj.abs().max(1.0),
        "{what}: energy {} vs {}",
        fused.csb_energy_uj,
        plain.csb_energy_uj
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_hazard_sequences_execute_bit_identically(
        body in body(),
        n in 1usize..=128,
    ) {
        let program = build_program(&body, n);
        let (plain_out, plain, _) = run_full(1, &program, n, false);
        let (fused_out, fused, _) = run_full(32, &program, n, false);

        assert_reports_identical(&fused, &plain, "fusion");
        prop_assert_eq!(&fused_out, &plain_out, "fused outputs");

        // The no-op vsetvli guarantee, machine-level: SEW retargeting
        // with an unchanged vl never flushes a window.
        prop_assert_eq!(fused.window_flushes.vsetvli, 0);
    }

    #[test]
    fn reordered_windows_survive_mid_window_context_switches(
        body in body(),
        n in 1usize..=96,
    ) {
        let program = build_program(&body, n);
        let (plain_out, plain) = run_sliced(1, &program, n);
        let (fused_out, fused) = run_sliced(32, &program, n);
        prop_assert_eq!(&fused_out, &plain_out, "sliced outputs");
        prop_assert_eq!(fused.microops, plain.microops);
        prop_assert_eq!(fused.lane_ops, plain.lane_ops);
        prop_assert_eq!(fused.vcu_cycles, plain.vcu_cycles);
    }

    #[test]
    fn reordered_windows_are_identical_under_armed_parity(
        body in body(),
        n in 1usize..=96,
    ) {
        let program = build_program(&body, n);
        let (plain_out, plain, plain_faults) = run_full(1, &program, n, true);
        let (fused_out, fused, fused_faults) = run_full(32, &program, n, true);
        assert_reports_identical(&fused, &plain, "fault mode");
        prop_assert_eq!(&fused_out, &plain_out, "fault-mode outputs");
        prop_assert_eq!(
            fused_faults,
            plain_faults,
            "parity machinery saw identical traffic"
        );
    }
}
