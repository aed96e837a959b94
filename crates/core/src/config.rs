//! System configurations (Table III of the paper).

use cape_csb::CsbGeometry;
use cape_mem::HbmConfig;
use serde::{Deserialize, Serialize};

/// A CAPE system configuration.
///
/// The paper evaluates two design points sized to match one and two
/// out-of-order core tiles respectively (slightly under 9 mm² at 7 nm per
/// tile): [`CapeConfig::cape32k`] (1,024 chains = 32,768 lanes) and
/// [`CapeConfig::cape131k`] (4,096 chains = 131,072 lanes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapeConfig {
    /// Configuration name for reports.
    pub name: &'static str,
    /// Number of CSB chains.
    pub chains: usize,
    /// CAPE clock in GHz. The critical path is the 237 ps read microop
    /// (4.22 GHz), derated 65% for clock skew and uncertainty → 2.7 GHz.
    pub freq_ghz: f64,
    /// Main-memory latency in CP cycles (HBM ~100 ns at 2.7 GHz).
    pub mem_latency_cycles: u64,
    /// The HBM main-memory system (8 channels, 16 GB/s each).
    pub hbm: HbmConfig,
    /// Instruction budget guard for program runs.
    pub max_instructions: u64,
    /// Entry budget of the VCU's compiled-program cache (per-op entries
    /// and fused windows each get this many slots). Sized so
    /// scalar-specialized sweeps — e.g. histogram's 256-bucket `vmseq.vx`
    /// inner loop, one program per bucket value — fit without LRU thrash.
    pub program_cache_capacity: usize,
    /// Maximum number of consecutive vector instructions fused into one
    /// CSB broadcast window. `1` (or `0`) disables fusion and restores
    /// the one-broadcast-per-instruction path; barriers (scalar reads,
    /// loads/stores, effective `vsetvli` changes, preemption) flush
    /// earlier regardless.
    pub fusion_window: usize,
}

impl CapeConfig {
    /// The CAPE32k design point: area-equivalent to one baseline core.
    pub fn cape32k() -> Self {
        Self {
            name: "CAPE32k",
            chains: 1024,
            freq_ghz: 2.7,
            mem_latency_cycles: 270,
            hbm: HbmConfig::default(),
            max_instructions: 500_000_000,
            program_cache_capacity: 1024,
            fusion_window: 32,
        }
    }

    /// The CAPE131k design point: area-equivalent to two baseline cores.
    pub fn cape131k() -> Self {
        Self {
            name: "CAPE131k",
            chains: 4096,
            ..Self::cape32k()
        }
    }

    /// A small configuration for tests and examples (`chains` chains,
    /// `chains * 32` lanes), with the full timing model intact.
    pub fn tiny(chains: usize) -> Self {
        Self {
            name: "CAPE-tiny",
            chains,
            ..Self::cape32k()
        }
    }

    /// The CSB geometry of this configuration.
    pub fn geometry(&self) -> CsbGeometry {
        CsbGeometry::new(self.chains)
    }

    /// Maximum vector length in 32-bit elements.
    pub fn max_vl(&self) -> usize {
        self.geometry().max_vl()
    }

    /// CSB storage capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.geometry().capacity_bytes()
    }
}

/// When a fleet scheduler stops trusting a machine.
///
/// A health monitor samples each machine's fault-layer counters
/// ([`FaultStats`](cape_csb::FaultStats)) between scheduling steps and
/// compares the *deltas* — new detections, new retries — plus the
/// absolute spare-block inventory against these thresholds to classify
/// the machine Healthy → Degraded → Quarantined. The defaults are sized
/// for storms of a few thousand ppm per broadcast, like the
/// `fault_storm` gate's: a handful of remapped transients is normal
/// wear, a burst of strikes or a near-empty spare pool is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthThresholds {
    /// Fault detections (parity + scrub) within one health
    /// window at or above this mark the machine Degraded — it still
    /// computes correctly (checkpointed retry heals the jobs) but it is
    /// burning retries and spares, so new work should route elsewhere.
    pub degraded_strikes: u64,
    /// Checkpointed slice re-executions within one health window at or
    /// above this mark the machine Degraded.
    pub degraded_retries: u64,
    /// A spare-block inventory at or below this (with at least one
    /// quarantine already taken) marks the machine Degraded: the next
    /// hard fault may be unmappable.
    pub degraded_spares_free: usize,
    /// Faulty blocks still pending after quarantine-and-remap (spares
    /// exhausted) at or above this mark the machine Quarantined: it can
    /// no longer guarantee bit-exact results, so it must stop taking
    /// jobs and its queue must migrate.
    pub quarantine_pending_faults: usize,
    /// Consecutive clean health windows a *repaired* machine must post on
    /// Probation before it is re-admitted to Healthy and eligible for new
    /// work. Any dirty window during Probation sends it back to
    /// Quarantined for good (one repair attempt per machine).
    pub probation_clean_windows: u64,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        Self {
            degraded_strikes: 6,
            degraded_retries: 4,
            degraded_spares_free: 1,
            quarantine_pending_faults: 1,
            probation_clean_windows: 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_defaults_are_ordered() {
        let h = HealthThresholds::default();
        assert!(h.degraded_strikes > 0 && h.degraded_retries > 0);
        assert!(h.quarantine_pending_faults > 0);
    }

    #[test]
    fn paper_design_points() {
        let small = CapeConfig::cape32k();
        assert_eq!(small.max_vl(), 32_768);
        assert_eq!(small.capacity_bytes(), 4 << 20);
        let big = CapeConfig::cape131k();
        assert_eq!(big.max_vl(), 131_072);
        assert_eq!(big.freq_ghz, 2.7);
    }

    #[test]
    fn tiny_keeps_model_parameters() {
        let t = CapeConfig::tiny(2);
        assert_eq!(t.max_vl(), 64);
        assert_eq!(t.freq_ghz, CapeConfig::cape32k().freq_ghz);
    }
}
