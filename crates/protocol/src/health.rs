//! [`LaneHealth`] — the per-SSD-lane health state machine, owned and fed by
//! [`crate::WorkerCore`].
//!
//! A *lane* is one SSD's command stream through a worker: the unit the
//! retry policy, the inflight table and the queue-depth budget all operate
//! on. This detector folds the lane's failure signals into four states:
//!
//! ```text
//!            first fault                 faults ≥ overload_faults
//! Healthy ───────────────► Degraded ───────────────────────────► Overloaded
//!    ▲                        │  ▲                                   │
//!    └──(never returns)       │  └── new fault after recovery        │
//!                   drain ────┴──────────────◄──────────── drain ────┘
//!                              Recovered
//! ```
//!
//! **Determinism contract.** Transitions are gated *only* on the worker
//! core's own decisions — its retry and timeout verdicts, and the
//! driver-signalled drain — never on wall-clock rates or sampled depths
//! (saturation is timing-dependent, so it gates nothing). Protocol
//! decisions are proven identical across the threaded and DES drivers by
//! the fidelity harness, so the transition sequence a workload produces is
//! itself driver-independent: the same seed yields the same `(from, to,
//! faults)` sequence in wall time and in virtual time.
//!
//! The state machine never reads a clock; the core hands each transition
//! to its driver as a [`Command::LaneTransition`](crate::Command), which
//! the driver emits as a flight-recorder event on its own timeline and
//! mirrors into the `cam_lane_health{ssd}` gauge.

/// The four lane-health states. `code` values are stable (they index
/// `cam-telemetry`'s `health_state_label` and the `cam_lane_health` gauge).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// No transient faults observed since attach.
    Healthy,
    /// At least one fault in the current episode.
    Degraded,
    /// The episode's fault count crossed the overload threshold.
    Overloaded,
    /// A degraded/overloaded lane drained clean; a new fault re-degrades.
    Recovered,
}

impl HealthState {
    /// Stable numeric code (gauge value; label-table index).
    pub fn code(self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Overloaded => 2,
            HealthState::Recovered => 3,
        }
    }

    /// Stable snake_case label.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Overloaded => "overloaded",
            HealthState::Recovered => "recovered",
        }
    }
}

/// One observed state change. `Eq` so driver-produced sequences can be
/// compared verbatim (the fidelity/health harness does exactly that).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthTransition {
    /// Lane (SSD index) that transitioned.
    pub ssd: usize,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// Cumulative faults (retries + timeouts) on the lane at the instant
    /// the transition fired.
    pub faults: u64,
}

/// Thresholds for the lane state machine.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HealthConfig {
    /// Faults within one episode (since the last clean state) that
    /// escalate `Degraded` → `Overloaded`.
    pub(crate) overload_faults: u64,
}

impl Default for HealthConfig {
    /// Eight faults per episode: one stuck command retried to death stays
    /// `Degraded`; a fault storm across the lane's queue depth overloads.
    fn default() -> Self {
        HealthConfig { overload_faults: 8 }
    }
}

/// Per-lane health detector. See module docs for the state machine and
/// the determinism contract.
#[derive(Debug)]
pub(crate) struct LaneHealth {
    ssd: usize,
    cfg: HealthConfig,
    state: HealthState,
    /// Cumulative faults (retries + timeouts) observed.
    faults: u64,
    /// Faults in the current episode (reset on drain).
    episode: u64,
}

impl LaneHealth {
    /// A healthy lane for SSD `ssd`.
    pub(crate) fn new(ssd: usize, cfg: HealthConfig) -> Self {
        LaneHealth {
            ssd,
            cfg,
            state: HealthState::Healthy,
            faults: 0,
            episode: 0,
        }
    }

    /// A command on this lane was re-queued after a transient failure, or
    /// missed its deadline.
    pub(crate) fn on_fault(&mut self) -> Option<HealthTransition> {
        self.faults += 1;
        self.episode += 1;
        let to = match self.state {
            HealthState::Healthy | HealthState::Recovered => HealthState::Degraded,
            HealthState::Degraded if self.episode >= self.cfg.overload_faults => {
                HealthState::Overloaded
            }
            HealthState::Degraded | HealthState::Overloaded => return None,
        };
        Some(self.transition(to))
    }

    /// The driver drained the lane clean (quiesce / end of run): a
    /// degraded or overloaded lane is declared recovered and its episode
    /// counter reset. No-op on a lane with no open episode.
    pub(crate) fn on_drain(&mut self) -> Option<HealthTransition> {
        match self.state {
            HealthState::Degraded | HealthState::Overloaded => {
                self.episode = 0;
                Some(self.transition(HealthState::Recovered))
            }
            HealthState::Healthy | HealthState::Recovered => None,
        }
    }

    fn transition(&mut self, to: HealthState) -> HealthTransition {
        let t = HealthTransition {
            ssd: self.ssd,
            from: self.state,
            to,
            faults: self.faults,
        };
        self.state = to;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(overload: u64) -> LaneHealth {
        LaneHealth::new(
            0,
            HealthConfig {
                overload_faults: overload,
            },
        )
    }

    #[test]
    fn fault_storm_walks_healthy_degraded_overloaded_recovered() {
        let mut l = lane(3);
        let t = l.on_fault().expect("first fault degrades");
        assert_eq!(
            (t.from, t.to, t.faults),
            (HealthState::Healthy, HealthState::Degraded, 1)
        );
        assert!(l.on_fault().is_none(), "second fault: still degraded");
        let t = l.on_fault().expect("threshold fault overloads");
        assert_eq!(
            (t.from, t.to, t.faults),
            (HealthState::Degraded, HealthState::Overloaded, 3)
        );
        assert!(l.on_fault().is_none(), "overloaded absorbs further faults");
        let t = l.on_drain().expect("drain recovers");
        assert_eq!(
            (t.from, t.to),
            (HealthState::Overloaded, HealthState::Recovered)
        );
        assert_eq!(t.faults, 4);
        assert!(l.on_drain().is_none(), "drain is idempotent");
    }

    #[test]
    fn recovery_resets_the_episode_but_not_cumulative_counts() {
        let mut l = lane(2);
        l.on_fault();
        l.on_fault(); // → Overloaded
        l.on_drain(); // → Recovered
        let t = l.on_fault().expect("fault after recovery re-degrades");
        assert_eq!(
            (t.from, t.to),
            (HealthState::Recovered, HealthState::Degraded)
        );
        assert_eq!(t.faults, 3, "cumulative count survives recovery");
        // Fresh episode: one more fault reaches the threshold again.
        let t = l
            .on_fault()
            .expect("episode threshold counts from recovery");
        assert_eq!(t.to, HealthState::Overloaded);
    }

    #[test]
    fn healthy_lanes_do_not_recover() {
        let mut l = lane(1);
        assert!(l.on_drain().is_none());
        assert_eq!(l.state, HealthState::Healthy);
    }

    #[test]
    fn state_codes_are_stable() {
        assert_eq!(HealthState::Healthy.code(), 0);
        assert_eq!(HealthState::Degraded.code(), 1);
        assert_eq!(HealthState::Overloaded.code(), 2);
        assert_eq!(HealthState::Recovered.code(), 3);
        assert_eq!(HealthState::Overloaded.name(), "overloaded");
    }
}
