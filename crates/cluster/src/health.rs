//! Machine health classification for the fleet scheduler.
//!
//! Each machine's CSB fault layer already counts everything a fleet
//! needs to know about its trustworthiness — detections by tier,
//! checkpointed retries, spare-block inventory, unremappable faults.
//! The [`HealthMonitor`] turns those raw counters into a four-state
//! classification by sampling them between scheduling steps and
//! comparing the *deltas* (new strikes since the last look, not
//! lifetime totals) against the [`HealthThresholds`] in the cluster
//! configuration. Demotion is automatic; the only way back up is the
//! explicit-repair probation ladder (see [`HealthState`]).

use cape_core::{FaultStats, HealthThresholds};

/// How much the fleet trusts one machine.
///
/// The ladder is one-way downward while a machine serves: leaving
/// `Healthy` on raw signals never reverses itself (re-admitting flaky
/// hardware on its own say-so would trade a bounded migration cost for
/// an unbounded retry bill). The single sanctioned way back is an
/// explicit repair: [`HealthMonitor::mark_repaired`] moves a
/// `Quarantined` machine to `Probation` — once per monitor lifetime —
/// and only `probation_clean_windows` consecutive clean windows
/// promote it back to `Healthy`. One dirty window on probation and it
/// is `Quarantined` for good.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HealthState {
    /// In rotation: takes new jobs and serves its queue.
    Healthy,
    /// Repaired after quarantine and earning trust back: probed every
    /// window but not yet eligible for new work. Clean windows count
    /// toward re-admission; any strike re-quarantines permanently.
    Probation,
    /// Still computing correctly (checkpointed retry heals its jobs)
    /// but burning retries and spares: its unstarted queue is drained
    /// to healthy peers and the router stops sending it work.
    Degraded,
    /// Unremappable faults pending — it can no longer guarantee
    /// bit-exact results. Out of rotation entirely; anything it failed
    /// is re-run elsewhere.
    Quarantined,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Probation => write!(f, "probation"),
            HealthState::Degraded => write!(f, "degraded"),
            HealthState::Quarantined => write!(f, "quarantined"),
        }
    }
}

/// One sample of a machine's observable health signals, read off the
/// engine between batches (all cheap counter reads — no report clone).
#[derive(Debug, Clone)]
pub struct HealthProbe {
    /// Cumulative fault-layer counters ([`cape_engine::Engine::machine`]
    /// → `fault_stats()`).
    pub fault: FaultStats,
    /// Cumulative checkpointed slice re-executions
    /// ([`cape_engine::Engine::total_retries`]).
    pub retries: u64,
    /// Faulty blocks pending with no spare left to remap onto.
    pub pending_faults: usize,
    /// Spare blocks still unused.
    pub spare_blocks_free: usize,
    /// Physical blocks quarantined so far.
    pub quarantined_blocks: usize,
}

/// Per-machine health tracker: feed it [`HealthProbe`]s, read back the
/// [`HealthState`].
#[derive(Debug)]
pub struct HealthMonitor {
    thresholds: HealthThresholds,
    state: HealthState,
    last_strikes: u64,
    last_retries: u64,
    transitions: u64,
    /// Consecutive clean windows posted since entering Probation.
    clean_windows: u64,
    /// Whether the one-per-lifetime repair credit has been spent.
    repaired: bool,
}

impl HealthMonitor {
    /// A monitor that trusts its machine until the counters say not to.
    pub fn new(thresholds: HealthThresholds) -> Self {
        Self {
            thresholds,
            state: HealthState::Healthy,
            last_strikes: 0,
            last_retries: 0,
            transitions: 0,
            clean_windows: 0,
            repaired: false,
        }
    }

    /// The current classification.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// State transitions taken so far (downward demotions, the repair
    /// drop to Probation, and the probation-earned promotion back).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Clean windows posted so far on Probation (zero elsewhere).
    pub fn probation_clean_windows(&self) -> u64 {
        self.clean_windows
    }

    /// Registers an explicit hardware repair: a `Quarantined` machine
    /// drops to `Probation` and starts earning clean windows toward
    /// re-admission. Allowed exactly once per monitor lifetime — a
    /// machine that gets struck again after its one repair is
    /// quarantined for good. Returns whether the transition happened
    /// (`false` when not quarantined or the repair credit is spent).
    pub fn mark_repaired(&mut self) -> bool {
        if self.state != HealthState::Quarantined || self.repaired {
            return false;
        }
        self.repaired = true;
        self.clean_windows = 0;
        self.transitions += 1;
        self.state = HealthState::Probation;
        true
    }

    /// Re-classifies from a fresh sample, returning the new state.
    ///
    /// Strike and retry signals are evaluated as deltas over the window
    /// since the previous `observe` call; the spare-block and
    /// pending-fault signals are absolute (inventory does not reset).
    /// The state only moves down the ladder, with one exception: on
    /// `Probation` a clean window increments the re-admission counter
    /// and the `probation_clean_windows`-th promotes back to `Healthy`,
    /// while any dirty window demotes straight to `Quarantined` (the
    /// repair credit is already spent, so that is final).
    pub fn observe(&mut self, probe: &HealthProbe) -> HealthState {
        let strikes = probe.fault.detected_parity + probe.fault.detected_scrub;
        let new_strikes = strikes.saturating_sub(self.last_strikes);
        let new_retries = probe.retries.saturating_sub(self.last_retries);
        self.last_strikes = strikes;
        self.last_retries = probe.retries;

        let raw = if probe.pending_faults >= self.thresholds.quarantine_pending_faults {
            HealthState::Quarantined
        } else if new_strikes >= self.thresholds.degraded_strikes
            || new_retries >= self.thresholds.degraded_retries
            || (probe.quarantined_blocks > 0
                && probe.spare_blocks_free <= self.thresholds.degraded_spares_free)
        {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        };
        let next = if self.state == HealthState::Probation {
            if raw == HealthState::Healthy {
                self.clean_windows += 1;
                if self.clean_windows >= self.thresholds.probation_clean_windows {
                    HealthState::Healthy
                } else {
                    HealthState::Probation
                }
            } else {
                HealthState::Quarantined
            }
        } else {
            raw.max(self.state)
        };
        if next != self.state {
            self.transitions += 1;
            self.state = next;
        }
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe() -> HealthProbe {
        HealthProbe {
            fault: FaultStats::default(),
            retries: 0,
            pending_faults: 0,
            spare_blocks_free: 8,
            quarantined_blocks: 0,
        }
    }

    #[test]
    fn quiet_machines_stay_healthy() {
        let mut m = HealthMonitor::new(HealthThresholds::default());
        for _ in 0..10 {
            assert_eq!(m.observe(&probe()), HealthState::Healthy);
        }
        assert_eq!(m.transitions(), 0);
    }

    #[test]
    fn strike_bursts_degrade_and_health_is_sticky() {
        let t = HealthThresholds::default();
        let mut m = HealthMonitor::new(t);
        let mut p = probe();
        p.fault.detected_parity = t.degraded_strikes; // burst in one window
        assert_eq!(m.observe(&p), HealthState::Degraded);
        // The same cumulative count in the next window is a zero delta,
        // but the ladder is one-way.
        assert_eq!(m.observe(&p), HealthState::Degraded);
        assert_eq!(m.transitions(), 1);
    }

    #[test]
    fn slow_strike_accrual_below_the_window_rate_stays_healthy() {
        let t = HealthThresholds::default();
        let mut m = HealthMonitor::new(t);
        let mut p = probe();
        // One detection per window, forever: normal wear, never a burst.
        for round in 1..=20 {
            p.fault.detected_parity = round;
            assert_eq!(m.observe(&p), HealthState::Healthy);
        }
    }

    #[test]
    fn retry_burn_degrades() {
        let t = HealthThresholds::default();
        let mut m = HealthMonitor::new(t);
        let mut p = probe();
        p.retries = t.degraded_retries;
        assert_eq!(m.observe(&p), HealthState::Degraded);
    }

    #[test]
    fn spare_exhaustion_degrades_and_pending_faults_quarantine() {
        let t = HealthThresholds::default();
        let mut m = HealthMonitor::new(t);
        let mut p = probe();
        p.quarantined_blocks = 3;
        p.spare_blocks_free = t.degraded_spares_free;
        assert_eq!(m.observe(&p), HealthState::Degraded);
        p.pending_faults = t.quarantine_pending_faults;
        assert_eq!(m.observe(&p), HealthState::Quarantined);
        assert_eq!(m.transitions(), 2);
    }

    /// Drives a fresh monitor to Quarantined via pending faults.
    fn quarantined() -> (HealthMonitor, HealthProbe) {
        let t = HealthThresholds::default();
        let mut m = HealthMonitor::new(t);
        let mut p = probe();
        p.pending_faults = t.quarantine_pending_faults;
        assert_eq!(m.observe(&p), HealthState::Quarantined);
        // Repair clears the pending faults and replenishes spares.
        p.pending_faults = 0;
        (m, p)
    }

    #[test]
    fn repair_earns_healthy_after_enough_clean_windows() {
        let t = HealthThresholds::default();
        let (mut m, p) = quarantined();
        assert!(m.mark_repaired());
        assert_eq!(m.state(), HealthState::Probation);
        for w in 1..t.probation_clean_windows {
            assert_eq!(m.observe(&p), HealthState::Probation);
            assert_eq!(m.probation_clean_windows(), w);
        }
        assert_eq!(m.observe(&p), HealthState::Healthy);
        // Healthy again is fully in rotation; quiet windows stay quiet.
        assert_eq!(m.observe(&p), HealthState::Healthy);
    }

    #[test]
    fn a_dirty_probation_window_requarantines_for_good() {
        let t = HealthThresholds::default();
        let (mut m, mut p) = quarantined();
        assert!(m.mark_repaired());
        assert_eq!(m.observe(&p), HealthState::Probation);
        p.fault.detected_parity = t.degraded_strikes; // burst mid-probation
        assert_eq!(m.observe(&p), HealthState::Quarantined);
        // The repair credit is spent: no second chance.
        assert!(!m.mark_repaired());
        assert_eq!(m.state(), HealthState::Quarantined);
    }

    #[test]
    fn repair_is_refused_off_quarantine() {
        let mut m = HealthMonitor::new(HealthThresholds::default());
        assert!(
            !m.mark_repaired(),
            "healthy machines have nothing to repair"
        );
        let t = HealthThresholds::default();
        let mut p = probe();
        p.retries = t.degraded_retries;
        assert_eq!(m.observe(&p), HealthState::Degraded);
        assert!(!m.mark_repaired(), "degraded is not quarantined");
    }

    #[test]
    fn a_full_spare_rack_never_trips_the_inventory_signal() {
        let mut m = HealthMonitor::new(HealthThresholds::default());
        let mut p = probe();
        // Low absolute spares but nothing ever quarantined: that is just
        // a small machine, not a worn one.
        p.spare_blocks_free = 0;
        p.quarantined_blocks = 0;
        assert_eq!(m.observe(&p), HealthState::Healthy);
    }
}
