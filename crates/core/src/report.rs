//! Run reports: everything the evaluation harness needs from one run.

use cape_cp::CpStats;
use cape_csb::MicroOpStats;
use serde::{Deserialize, Serialize};

use crate::machine::MachineCounters;

/// Fusion-window flushes broken down by cause.
///
/// Every counter is "windows of buffered vector ops committed to the CSB
/// because of this event" — an empty pending window costs nothing and is
/// not counted. Single-op windows count too: a flush that lands one
/// buffered op is still a lost fusion opportunity worth attributing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowFlushes {
    /// An *effective* `vl`/`vstart` change. `vsetvli`/`vsetstart` that
    /// provably leave the active window unchanged join the window as
    /// no-ops and never appear here.
    pub vsetvli: u64,
    /// A vector instruction whose result crosses to the scalar side
    /// (`vredsum`, `vmv.x.s`, or any non-fusible lowering).
    pub scalar_result: u64,
    /// A VMU transfer (`vle32`/`vse32`/`vlrw`) needed committed state.
    pub vmu: u64,
    /// A slice preemption point (scheduler quantum expired).
    pub preempt: u64,
    /// A context save/restore switched jobs mid-window.
    pub ctx_switch: u64,
    /// Fault machinery (scrub, quarantine, spare service, watchdog, or a
    /// rejected instruction) forced committed state.
    pub fault: u64,
    /// An end-of-run drain (program exit or direct CSB access).
    pub drain: u64,
    /// The window hit `fusion_window` capacity.
    pub capacity: u64,
}

impl WindowFlushes {
    /// Total flushes across every cause.
    pub fn total(&self) -> u64 {
        self.vsetvli
            + self.scalar_result
            + self.vmu
            + self.preempt
            + self.ctx_switch
            + self.fault
            + self.drain
            + self.capacity
    }

    /// Adds `other` into `self` field-wise.
    pub fn accumulate(&mut self, other: &Self) {
        self.vsetvli += other.vsetvli;
        self.scalar_result += other.scalar_result;
        self.vmu += other.vmu;
        self.preempt += other.preempt;
        self.ctx_switch += other.ctx_switch;
        self.fault += other.fault;
        self.drain += other.drain;
        self.capacity += other.capacity;
    }

    /// Field-wise difference `self - earlier` (counters only grow).
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            vsetvli: self.vsetvli - earlier.vsetvli,
            scalar_result: self.scalar_result - earlier.scalar_result,
            vmu: self.vmu - earlier.vmu,
            preempt: self.preempt - earlier.preempt,
            ctx_switch: self.ctx_switch - earlier.ctx_switch,
            fault: self.fault - earlier.fault,
            drain: self.drain - earlier.drain,
            capacity: self.capacity - earlier.capacity,
        }
    }
}

/// Summary of one program execution on a [`CapeMachine`](crate::CapeMachine).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Total cycles (control processor and vector engine overlapped).
    pub cycles: u64,
    /// Core frequency used to convert cycles to time.
    pub freq_ghz: f64,
    /// Control-processor statistics (instruction mix, branches, …).
    pub cp: CpStats,
    /// CSB microops emitted during the run.
    pub microops: MicroOpStats,
    /// CSB dynamic energy in microjoules.
    pub csb_energy_uj: f64,
    /// Bytes read from HBM.
    pub hbm_bytes_read: u64,
    /// Bytes written to HBM.
    pub hbm_bytes_written: u64,
    /// Element-wise vector operations executed (vector compute
    /// instructions weighted by their active vector length) — the "ops"
    /// numerator of the roofline model.
    pub lane_ops: u64,
    /// Cycles spent in VMU transfers.
    pub vmu_cycles: u64,
    /// Cycles spent in VCU compute.
    pub vcu_cycles: u64,
    /// Microcode program-cache hits during the run (vector instructions
    /// whose compiled broadcast program was reused).
    pub program_cache_hits: u64,
    /// Microcode program-cache misses during the run (fresh compiles).
    pub program_cache_misses: u64,
    /// Fusion windows of two or more vector instructions broadcast to
    /// the CSB as one super-program during the run.
    pub fused_windows: u64,
    /// Vector instructions executed inside those fused windows.
    pub fused_ops: u64,
    /// Pool broadcasts (fan-out + join) the fusion windows eliminated:
    /// each `n`-op window paid one join instead of `n`.
    pub fused_joins_saved: u64,
    /// Window flushes during the run, by cause.
    pub window_flushes: WindowFlushes,
    /// Plan-level stores the window compiler's peepholes (dead-store
    /// elimination, `TagCombine` dedup) removed from executed fused
    /// windows — work the CSB never had to broadcast.
    pub dead_stores_eliminated: u64,
}

impl RunReport {
    /// The report of a run whose control processor finished with `cp`
    /// at `freq_ghz` while the machine did the work in `counters`.
    pub fn new(cp: CpStats, freq_ghz: f64, counters: &MachineCounters) -> Self {
        Self {
            cycles: cp.cycles,
            freq_ghz,
            cp,
            microops: counters.microops,
            csb_energy_uj: counters.energy_pj / 1e6,
            hbm_bytes_read: counters.hbm_bytes_read,
            hbm_bytes_written: counters.hbm_bytes_written,
            lane_ops: counters.lane_ops,
            vmu_cycles: counters.vmu_cycles,
            vcu_cycles: counters.vcu_cycles,
            program_cache_hits: counters.cache_hits,
            program_cache_misses: counters.cache_misses,
            fused_windows: counters.fused_windows,
            fused_ops: counters.fused_ops,
            fused_joins_saved: counters.fused_joins_saved,
            window_flushes: counters.window_flushes,
            dead_stores_eliminated: counters.dead_stores_eliminated,
        }
    }

    /// Wall-clock time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.cycles as f64 / (self.freq_ghz * 1e6)
    }

    /// Total HBM traffic in bytes.
    pub fn hbm_bytes(&self) -> u64 {
        self.hbm_bytes_read + self.hbm_bytes_written
    }

    /// Throughput in giga-(element)-operations per second.
    pub fn gops(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.lane_ops as f64 * self.freq_ghz / self.cycles as f64
        }
    }

    /// Operational intensity in element-operations per byte of HBM
    /// traffic (infinite for runs with no memory traffic).
    pub fn intensity(&self) -> f64 {
        let bytes = self.hbm_bytes();
        if bytes == 0 {
            f64::INFINITY
        } else {
            self.lane_ops as f64 / bytes as f64
        }
    }

    /// Speedup of this run relative to `baseline_time_ms` from another
    /// model.
    pub fn speedup_over(&self, baseline_time_ms: f64) -> f64 {
        baseline_time_ms / self.time_ms()
    }

    /// Fraction of vector compute instructions whose compiled program was
    /// found in the VCU's program cache (0 when none executed).
    pub fn program_cache_hit_rate(&self) -> f64 {
        let total = self.program_cache_hits + self.program_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.program_cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, lane_ops: u64, bytes: u64) -> RunReport {
        RunReport {
            cycles,
            freq_ghz: 2.7,
            cp: CpStats::default(),
            microops: MicroOpStats::default(),
            csb_energy_uj: 0.0,
            hbm_bytes_read: bytes,
            hbm_bytes_written: 0,
            lane_ops,
            vmu_cycles: 0,
            vcu_cycles: 0,
            program_cache_hits: 0,
            program_cache_misses: 0,
            fused_windows: 0,
            fused_ops: 0,
            fused_joins_saved: 0,
            window_flushes: WindowFlushes::default(),
            dead_stores_eliminated: 0,
        }
    }

    #[test]
    fn time_and_throughput() {
        let r = report(2_700_000, 1_000_000, 4_000_000);
        assert!((r.time_ms() - 1.0).abs() < 1e-9);
        assert!((r.gops() - 1.0).abs() < 1e-9);
        assert!((r.intensity() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn zero_traffic_has_infinite_intensity() {
        assert!(report(100, 10, 0).intensity().is_infinite());
    }

    #[test]
    fn window_flush_arithmetic() {
        let mut a = WindowFlushes {
            vsetvli: 2,
            capacity: 5,
            ..WindowFlushes::default()
        };
        let b = WindowFlushes {
            vsetvli: 1,
            drain: 3,
            ..WindowFlushes::default()
        };
        a.accumulate(&b);
        assert_eq!(a.vsetvli, 3);
        assert_eq!(a.total(), 11);
        let d = a.since(&b);
        assert_eq!(d.vsetvli, 2);
        assert_eq!(d.drain, 0);
        assert_eq!(d.total(), 7);
    }

    #[test]
    fn speedup_is_time_ratio() {
        let r = report(2_700_000, 0, 0); // 1 ms
        assert!((r.speedup_over(14.0) - 14.0).abs() < 1e-9);
    }
}
