//! Whole-system tests: assembly text in, verified memory out.

use cape_core::{CapeConfig, CapeMachine};
use cape_isa::{assemble, Program};
use cape_mem::MainMemory;

fn run(config: CapeConfig, src: &str, setup: impl FnOnce(&mut MainMemory)) -> MainMemory {
    let mut machine = CapeMachine::new(config);
    let mut mem = MainMemory::new();
    setup(&mut mem);
    let prog = assemble(src).expect("assembles");
    machine.run(&prog, &mut mem).expect("runs");
    mem
}

#[test]
fn saxpy_like_kernel_is_exact() {
    let src = r"
        li   s0, 500
        li   s1, 0x1000
        li   s2, 0x2000
        li   s3, 0x3000
        li   s4, 7          # scalar multiplier
        loop:
          vsetvli t0, s0
          vle32.v v1, (s1)
          vmul.vx v3, v1, s4
          vle32.v v2, (s2)
          vadd.vv v4, v3, v2
          vse32.v v4, (s3)
          sub s0, s0, t0
          slli t1, t0, 2
          add s1, s1, t1
          add s2, s2, t1
          add s3, s3, t1
          bnez s0, loop
        halt
    ";
    let a: Vec<u32> = (0..500u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    let b: Vec<u32> = (0..500u32).map(|i| i ^ 0xFFFF_0000).collect();
    let (ac, bc) = (a.clone(), b.clone());
    let mem = run(CapeConfig::tiny(4), src, move |m| {
        m.write_u32_slice(0x1000, &ac);
        m.write_u32_slice(0x2000, &bc);
    });
    for i in 0..500 {
        let want = a[i].wrapping_mul(7).wrapping_add(b[i]);
        assert_eq!(mem.read_u32(0x3000 + (i as u64) * 4), want, "element {i}");
    }
}

#[test]
fn results_are_identical_across_csb_sizes() {
    // The same program must produce the same answers regardless of how
    // many chains the machine has (vector-length agnosticism).
    let src = r"
        li   s0, 300
        li   s1, 0x1000
        li   s3, 0x3000
        li   s4, 0
        loop:
          vsetvli t0, s0
          vle32.v v1, (s1)
          vmslt.vx v2, v1, s4   # negative elements (signed)
          vcpop.m t2, v2
          add s5, s5, t2
          sub s0, s0, t0
          slli t1, t0, 2
          add s1, s1, t1
          bnez s0, loop
        sw s5, 0(s3)
        halt
    ";
    let data: Vec<u32> = (0..300u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let mut results = Vec::new();
    for chains in [1usize, 2, 4, 16] {
        let d = data.clone();
        let mem = run(CapeConfig::tiny(chains), src, move |m| {
            m.write_u32_slice(0x1000, &d);
        });
        results.push(mem.read_u32(0x3000));
    }
    let want = data.iter().filter(|&&x| (x as i32) < 0).count() as u32;
    assert!(results.iter().all(|&r| r == want), "{results:?} vs {want}");
}

#[test]
fn runs_are_deterministic() {
    let w = cape_workloads::phoenix::Kmeans {
        n: 200,
        k: 3,
        iters: 2,
    };
    let r1 = cape_workloads::run_cape(&w, &CapeConfig::tiny(4));
    let r2 = cape_workloads::run_cape(&w, &CapeConfig::tiny(4));
    assert_eq!(r1.digest, r2.digest);
    assert_eq!(r1.report.cycles, r2.report.cycles);
    assert_eq!(r1.report.microops, r2.report.microops);
}

#[test]
fn binary_roundtrip_of_a_whole_workload_program() {
    // Encode a real workload program to machine words and decode it back.
    let w = cape_workloads::phoenix::Matmul { n: 8 };
    let mut mem = MainMemory::new();
    let prog = {
        use cape_workloads::Workload;
        w.cape_setup(&mut mem)
    };
    let words = prog.encode();
    let back = Program::decode(&words).expect("decodes");
    assert_eq!(back, prog);
}

#[test]
fn larger_csb_is_never_slower_on_data_parallel_work() {
    let w = cape_workloads::micro::Vvadd { n: 3000 };
    let small = cape_workloads::run_cape(&w, &CapeConfig::tiny(2));
    let big = cape_workloads::run_cape(&w, &CapeConfig::tiny(32));
    assert_eq!(small.digest, big.digest);
    assert!(
        big.report.cycles <= small.report.cycles,
        "32 chains ({}) must beat 2 chains ({})",
        big.report.cycles,
        small.report.cycles
    );
}

#[test]
fn vector_engine_reports_busy_cycles() {
    let w = cape_workloads::micro::DotProd { n: 1000 };
    let run = cape_workloads::run_cape(&w, &CapeConfig::tiny(4));
    assert!(run.report.cp.vector_busy_cycles > 0);
    assert!(run.report.cp.vector > 0);
    assert!(run.report.vcu_cycles > 0);
    assert!(run.report.vmu_cycles > 0);
}

#[test]
fn phoenix_loops_hit_the_program_cache() {
    // Strip-mined loops re-issue the same static vector instructions, so
    // after the first strip compiles them the VCU program cache serves
    // every repeat. Sizes are chosen so each workload runs several strips
    // on the 4-chain (128-lane) test machine.
    use cape_workloads::phoenix::{Histogram, Kmeans, LinearRegression, StringMatch, WordCount};
    let workloads: Vec<Box<dyn cape_workloads::Workload>> = vec![
        Box::new(LinearRegression { n: 8_192 }),
        Box::new(Histogram { n: 8_192 }),
        Box::new(Kmeans {
            n: 2_048,
            k: 4,
            iters: 5,
        }),
        Box::new(WordCount {
            n: 8_192,
            vocab: 64,
            top: 8,
        }),
        Box::new(StringMatch {
            n: 8_192,
            needles: 4,
        }),
    ];
    for w in workloads {
        let run = cape_workloads::run_cape(w.as_ref(), &CapeConfig::tiny(4));
        let r = run.report;
        assert!(
            r.program_cache_hit_rate() > 0.9,
            "{}: hit rate {:.3} (hits {} misses {})",
            w.name(),
            r.program_cache_hit_rate(),
            r.program_cache_hits,
            r.program_cache_misses
        );
    }
}

#[test]
fn accesses_at_the_top_of_the_address_space_wrap_to_zero() {
    // RISC-V effective addresses wrap modulo 2^64: each access below
    // starts a few bytes under `u64::MAX` and continues at address 0.
    let top = u64::MAX;

    // A word load across the wrap.
    let mem = run(
        CapeConfig::tiny(4),
        "lw a0, -2(zero)\n sw a0, 0x100(zero)\n halt",
        |m| m.write_bytes(top - 1, &[0x11, 0x22, 0x33, 0x44]),
    );
    assert_eq!(mem.read_u32(0x100), 0x4433_2211);

    // A doubleword store across the wrap reads back byte for byte.
    let value: u64 = 0x0807_0605_0403_0201;
    let mem = run(
        CapeConfig::tiny(4),
        "ld a0, 0x300(zero)\n sd a0, -4(zero)\n ld a1, -4(zero)\n sd a1, 0x200(zero)\n halt",
        |m| m.write_u64(0x300, value),
    );
    assert_eq!(mem.read_bytes(top - 3, 4), value.to_le_bytes()[..4]);
    assert_eq!(mem.read_bytes(0, 4), value.to_le_bytes()[4..]);
    assert_eq!(mem.read_u64(0x200), value);

    // A full-window vector load across the wrap (128 lanes on 4 chains).
    let words: Vec<u32> = (0..128u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let src = words.clone();
    let mem = run(
        CapeConfig::tiny(4),
        "li a0, -8\n vle32.v v1, (a0)\n li a1, 0x1000\n vse32.v v1, (a1)\n halt",
        move |m| m.write_u32_slice(top - 7, &src),
    );
    assert_eq!(mem.read_u32_slice(0x1000, 128), words);
}
