//! Fusion windows: several compiled vector operations concatenated into
//! one super-program so the whole window costs a single CSB broadcast and
//! a single join.
//!
//! The CP/VCU boundary buffers back-to-back vector instructions whose
//! [`PostProcess`] is [`PostProcess::None`] (nothing crosses back to the
//! scalar side between them) until a fusion barrier — a scalar read of a
//! vector result, a VMU load/store, an *effective* `vl`/`vstart` change,
//! or a slice preemption point. A `vsetvli`/`vsetstart` that provably
//! leaves the active window unchanged is a no-op marker, not a barrier,
//! and SEW transitions fuse freely: width only parameterizes each part's
//! own lowering and its (absent) post-processing, so a mixed-SEW window
//! is an ordinary concatenation of plans compiled at their own widths.
//!
//! [`fuse_window`] builds the window from what the buffered ops already
//! compiled ([`MicroProgram::windowed`](cape_csb::MicroProgram::windowed)):
//! it concatenates their lowered plans in issue order, runs step fusion
//! over the result (which fuses only the op seams), then the cross-op
//! plan-level peepholes (adjacent `TagCombine` merging, then dead-store
//! elimination over rows, tags and accumulators). No microop is copied
//! or lowered again: the window's op list is shared handles to the
//! parts' lists, and its stats, sync points and written rows are merged
//! from the parts'.
//!
//! Fused windows are cacheable exactly like single compiled ops: the
//! program depends only on the `(VectorOp, SEW)` sequence, never on CSB
//! data, so [`window_fingerprint`] over that sequence is a sound cache
//! key — SEW-aware, since each op hashes with its own width. The cache
//! additionally stores the full key sequence and verifies it on hit, so
//! a 64-bit collision can never serve the wrong super-program.

use cape_csb::MicroProgram;

use crate::sequencer::{CompiledOp, PostProcess};
use crate::vop::VectorOp;

/// FNV-1a, the paper-repo-wide fingerprint of choice for small key
/// streams: no tables, one multiply per byte, and stable across runs
/// (unlike `std`'s randomized SipHash).
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
}

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

/// Fingerprint of a fusion window: FNV-1a over the `(VectorOp, SEW)`
/// sequence, in issue order.
///
/// Two windows with the same fingerprint lower to the same fused program
/// (compilation is a pure function of op and width), so the fingerprint
/// keys the VCU's fused-program cache. Operation *operands* — register
/// numbers and scalar immediates — are part of the hash, exactly as they
/// are for the single-op cache key.
pub fn window_fingerprint(ops: &[(VectorOp, u32)]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = Fnv1a(Fnv1a::OFFSET_BASIS);
    ops.len().hash(&mut h);
    for (op, sew) in ops {
        op.hash(&mut h);
        sew.hash(&mut h);
    }
    h.finish()
}

/// Compiles several buffered operations into one fused window program.
///
/// The result replays every part with one broadcast and one join: the
/// parts' lowered plans are concatenated in issue order, then step
/// fusion across the seams and the plan-level peephole passes run over
/// the whole window
/// ([`MicroProgram::windowed`](cape_csb::MicroProgram::windowed)). CSB
/// state afterwards is bit-identical to running the parts back to back.
///
/// `_reorder` changes nothing; the parameter stays only so existing
/// callers (the benchmark under `capebench/`) keep building.
///
/// Parts may disagree on element width: every fusible op has
/// [`PostProcess::None`], and SEW only parameterizes post-processing and
/// each part's already-lowered microops, so a mixed-SEW window is just a
/// concatenation of plans that were each compiled at their own width.
/// (The fused op carries the first part's width; nothing reads it.)
///
/// # Panics
///
/// Panics if `parts` is empty or if any part's post-process step is not
/// [`PostProcess::None`] (such ops are fusion barriers — their results
/// cross back to the scalar side and must execute unfused).
pub fn fuse_window(parts: &[&CompiledOp], _reorder: bool) -> CompiledOp {
    let first = parts.first().expect("fusion window must be non-empty");
    let width = first.width();
    for p in parts {
        assert_eq!(
            p.post(),
            PostProcess::None,
            "ops with scalar post-processing are fusion barriers"
        );
    }
    let programs: Vec<&MicroProgram> = parts.iter().map(|p| p.program()).collect();
    CompiledOp::from_parts(MicroProgram::windowed(&programs), PostProcess::None, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequencer::Sequencer;
    use cape_csb::{Csb, CsbGeometry};

    fn ops() -> Vec<VectorOp> {
        vec![
            VectorOp::Add {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
            VectorOp::Xor {
                vd: 4,
                vs1: 3,
                vs2: 1,
            },
            VectorOp::Sub {
                vd: 5,
                vs1: 4,
                vs2: 2,
            },
            VectorOp::AddScalar {
                vd: 6,
                vs1: 5,
                rs: 7,
            },
        ]
    }

    fn seeded() -> Csb {
        let mut csb = Csb::new(CsbGeometry::new(2));
        csb.write_vector(1, &[10, 20, 30, 0xdead, 5]);
        csb.write_vector(2, &[1, 2, 3, 4, 5]);
        csb.set_active_window(1, 5);
        csb
    }

    #[test]
    fn fused_window_matches_back_to_back_execution() {
        let parts: Vec<CompiledOp> = ops().iter().map(|op| CompiledOp::compile(op, 32)).collect();

        let mut baseline = seeded();
        {
            let mut seq = Sequencer::new(&mut baseline);
            for p in &parts {
                seq.run_program(p);
            }
        }

        let mut fused_csb = seeded();
        let fused = fuse_window(&parts.iter().collect::<Vec<_>>(), false);
        let outcome = Sequencer::new(&mut fused_csb).run_program(&fused);
        assert_eq!(outcome.scalar, None);
        assert_eq!(baseline.save_registers(), fused_csb.save_registers());
    }

    #[test]
    fn mixed_sew_window_matches_back_to_back_execution() {
        // The same dependence chain compiled at alternating widths: a
        // genuinely mixed-SEW window, fused without a barrier.
        let widths = [8usize, 16, 8, 32];
        let parts: Vec<CompiledOp> = ops()
            .iter()
            .zip(widths)
            .map(|(op, w)| CompiledOp::compile(op, w))
            .collect();

        let mut baseline = seeded();
        {
            let mut seq = Sequencer::new(&mut baseline);
            for p in &parts {
                seq.run_program(p);
            }
        }

        let mut fused_csb = seeded();
        let fused = fuse_window(&parts.iter().collect::<Vec<_>>(), false);
        Sequencer::new(&mut fused_csb).run_program(&fused);
        assert_eq!(baseline.save_registers(), fused_csb.save_registers());
    }

    /// The window of `seq` at SEW 32 and its parts, after checking that
    /// the window leaves the registers running the parts back to back
    /// does, and that its op list is the parts' concatenation.
    fn window_of(seq: &[VectorOp]) -> (Vec<CompiledOp>, CompiledOp) {
        let parts: Vec<CompiledOp> = seq.iter().map(|op| CompiledOp::compile(op, 32)).collect();
        let fused = fuse_window(&parts.iter().collect::<Vec<_>>(), false);
        // The *op* list stays the unoptimized concatenation so recorded
        // stats (cycles, energy) match per-op execution.
        assert_eq!(
            fused.program().len(),
            parts.iter().map(|p| p.program().len()).sum::<usize>()
        );
        let mut baseline = seeded();
        {
            let mut s = Sequencer::new(&mut baseline);
            for p in &parts {
                s.run_program(p);
            }
        }
        let mut fused_csb = seeded();
        Sequencer::new(&mut fused_csb).run_program(&fused);
        assert_eq!(baseline.save_registers(), fused_csb.save_registers());
        (parts, fused)
    }

    #[test]
    fn dead_intermediate_shrinks_the_fused_plan() {
        // v3 is written by the xor, never read, then fully overwritten by
        // the broadcast (full-window writes) — the xor's stores are dead.
        let (parts, fused) = window_of(&[
            VectorOp::Xor {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
            VectorOp::Broadcast { vd: 3, rs: 0xab },
        ]);
        let total: usize = parts.iter().map(|p| p.program().plan_len()).sum();
        assert_eq!(
            (fused.program().plan_len(), total),
            (3, 5),
            "cross-op dead-store elimination should shrink the fused plan"
        );
        assert_eq!(fused.program().dead_stores(), 64, "the win is measurable");

        // A dead sum is kept: each of its bit-steps also writes the carry
        // into the next subarray and latches the tags, which nothing in the
        // window covers, and a bit-step is kept or dropped whole.
        let (parts, fused) = window_of(&[
            VectorOp::Add {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
            VectorOp::Broadcast { vd: 3, rs: 0xab },
        ]);
        let lens: Vec<usize> = parts.iter().map(|p| p.program().plan_len()).collect();
        assert_eq!(lens, [36, 1]);
        assert_eq!(fused.program().plan_len(), 36 + 1);
        assert_eq!(fused.program().dead_stores(), 0);
    }

    #[test]
    fn fingerprint_distinguishes_sequences() {
        let a: Vec<(VectorOp, u32)> = ops().into_iter().map(|op| (op, 32)).collect();
        let mut b = a.clone();
        b.swap(0, 1);
        let mut c = a.clone();
        c[0].1 = 16;
        let truncated = a[..3].to_vec();

        let fa = window_fingerprint(&a);
        assert_eq!(fa, window_fingerprint(&a), "fingerprint must be stable");
        assert_ne!(fa, window_fingerprint(&b), "order matters");
        assert_ne!(fa, window_fingerprint(&c), "SEW matters");
        assert_ne!(fa, window_fingerprint(&truncated), "length matters");
    }

    #[test]
    #[should_panic(expected = "fusion barriers")]
    fn reduction_ops_refuse_to_fuse() {
        let add = CompiledOp::compile(
            &VectorOp::Add {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
            32,
        );
        let red = CompiledOp::compile(&VectorOp::RedSum { vd: 4, vs: 3 }, 32);
        fuse_window(&[&add, &red], false);
    }
}
