//! Fault injection for the DES and the runtime above it.
//!
//! A [`FaultPlan`] describes *what goes wrong* during a launch: a GPU chunk
//! dispatch that never completes, CPU cores that stall at a point in
//! simulated time or run slower than nominal, and transient profiling
//! failures (consumed by the runtime layer, not the DES). The DES pairs
//! the plan with a **watchdog**: when a device has made no progress for
//! [`FaultPlan::watchdog_timeout`] seconds, its in-flight work-groups are
//! reclaimed into a recovery pool and re-distributed to surviving agents,
//! so a launch the remaining hardware could still finish never fails.
//!
//! All of this is deterministic — faults trigger at exact dispatch counts
//! or simulated times, never from wall-clock state, so a faulty run is as
//! reproducible as a healthy one.

/// Default watchdog timeout in simulated seconds. Real GPU watchdogs sit
/// at whole seconds; simulated kernels here finish in milliseconds, so the
/// default is scaled to be long relative to any healthy chunk yet short
/// enough that recovery does not dominate a degraded makespan.
pub const DEFAULT_WATCHDOG_TIMEOUT_S: f64 = 0.05;

/// A CPU core that halts permanently at a point in simulated time. Any
/// work-group in flight on the core when it stalls is reclaimed by the
/// watchdog and re-distributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreStall {
    /// CPU core ordinal (0-based among the active cores of the run).
    pub core: usize,
    /// Simulated time at which the core stops executing.
    pub at_s: f64,
}

/// A CPU core running slower than nominal (thermal throttling, a noisy
/// co-tenant). The core still completes every group it claims — this is a
/// performance fault, not a correctness fault, and does not mark the run
/// degraded on its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreSlowdown {
    /// CPU core ordinal (0-based among the active cores of the run).
    pub core: usize,
    /// Compute-time multiplier (2.0 = groups take twice as long). Values
    /// below 1.0 are clamped to 1.0 — the plan injects faults, not boosts.
    pub factor: f64,
}

/// Everything that goes wrong during one launch.
///
/// The default plan is empty (no faults): [`crate::des::run_des`] under
/// it may take the batched fast path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Hang the k-th (0-based) GPU chunk dispatch: the dispatch claims its
    /// work-groups and then never completes. The watchdog reclaims the
    /// groups and the device is considered dead for the rest of the run.
    /// Under `Schedule::DynamicPull` the count applies to the first CU
    /// agent's pulls.
    pub gpu_hang_at_dispatch: Option<usize>,
    /// Cores that halt permanently at a simulated time.
    pub core_stalls: Vec<CoreStall>,
    /// Cores running slower than nominal.
    pub core_slowdowns: Vec<CoreSlowdown>,
    /// Number of leading `profile()` attempts that fail transiently. The
    /// DES ignores this field; the runtime's retry logic consumes it.
    pub transient_profile_failures: u32,
    /// Override the watchdog timeout (`None` uses
    /// [`DEFAULT_WATCHDOG_TIMEOUT_S`]).
    pub watchdog_timeout_s: Option<f64>,
}

impl FaultPlan {
    /// The empty plan: nothing fails.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Named fault presets for CLI/CI use (`--inject-preset`):
    ///
    /// * `gpu-hang` — the GPU's first chunk dispatch hangs on every launch
    ///   (a persistent device fault; exercises watchdog reclaim, deadline
    ///   re-dispatch and the GPU circuit breaker),
    /// * `cpu-stall` — core 0 halts at t=0 on every launch,
    /// * `transient-storm` — three consecutive transient profiling
    ///   failures (exercises the bounded-retry path).
    ///
    /// Returns `None` for unknown names.
    pub fn preset(name: &str) -> Option<FaultPlan> {
        match name {
            "gpu-hang" => Some(FaultPlan {
                gpu_hang_at_dispatch: Some(0),
                ..FaultPlan::default()
            }),
            "cpu-stall" => Some(FaultPlan {
                core_stalls: vec![CoreStall { core: 0, at_s: 0.0 }],
                ..FaultPlan::default()
            }),
            "transient-storm" => Some(FaultPlan {
                transient_profile_failures: 3,
                ..FaultPlan::default()
            }),
            _ => None,
        }
    }

    /// Whether the plan injects any DES-visible fault (profile failures
    /// are runtime-level and do not count).
    pub fn affects_des(&self) -> bool {
        self.gpu_hang_at_dispatch.is_some()
            || !self.core_stalls.is_empty()
            || self.core_slowdowns.iter().any(|s| s.factor > 1.0)
    }

    /// Effective watchdog timeout in simulated seconds (always finite and
    /// positive, whatever the override says).
    pub fn watchdog_timeout(&self) -> f64 {
        match self.watchdog_timeout_s {
            Some(t) if t.is_finite() && t > 0.0 => t,
            _ => DEFAULT_WATCHDOG_TIMEOUT_S,
        }
    }

    /// Compute-time multiplier for a CPU core (>= 1.0).
    pub fn slowdown_for(&self, core: usize) -> f64 {
        self.core_slowdowns
            .iter()
            .filter(|s| s.core == core)
            .map(|s| s.factor.max(1.0))
            .fold(1.0, f64::max)
    }

    /// When (if ever) a CPU core stalls; the earliest matching entry wins.
    pub fn stall_for(&self, core: usize) -> Option<f64> {
        self.core_stalls
            .iter()
            .filter(|s| s.core == core && s.at_s.is_finite())
            .map(|s| s.at_s.max(0.0))
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(!plan.affects_des());
        assert_eq!(plan.watchdog_timeout(), DEFAULT_WATCHDOG_TIMEOUT_S);
        assert_eq!(plan.slowdown_for(0), 1.0);
        assert_eq!(plan.stall_for(0), None);
    }

    #[test]
    fn presets_resolve_and_unknown_names_do_not() {
        assert_eq!(
            FaultPlan::preset("gpu-hang").unwrap().gpu_hang_at_dispatch,
            Some(0)
        );
        assert_eq!(FaultPlan::preset("cpu-stall").unwrap().core_stalls.len(), 1);
        assert_eq!(
            FaultPlan::preset("transient-storm").unwrap().transient_profile_failures,
            3
        );
        assert!(FaultPlan::preset("gpu-hang").unwrap().affects_des());
        assert!(!FaultPlan::preset("transient-storm").unwrap().affects_des());
        assert!(FaultPlan::preset("nonsense").is_none());
    }

    #[test]
    fn slowdown_is_clamped_and_per_core() {
        let plan = FaultPlan {
            core_slowdowns: vec![
                CoreSlowdown { core: 1, factor: 0.25 }, // clamped: no speedups
                CoreSlowdown { core: 2, factor: 3.0 },
                CoreSlowdown { core: 2, factor: 2.0 }, // max of duplicates wins
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.slowdown_for(0), 1.0);
        assert_eq!(plan.slowdown_for(1), 1.0);
        assert_eq!(plan.slowdown_for(2), 3.0);
        assert!(plan.affects_des());
    }

    #[test]
    fn stall_picks_earliest_and_ignores_non_finite() {
        let plan = FaultPlan {
            core_stalls: vec![
                CoreStall { core: 0, at_s: 2.0 },
                CoreStall { core: 0, at_s: 1.0 },
                CoreStall { core: 1, at_s: f64::NAN },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.stall_for(0), Some(1.0));
        assert_eq!(plan.stall_for(1), None);
    }

    #[test]
    fn watchdog_override_must_be_positive_finite() {
        let bad = FaultPlan { watchdog_timeout_s: Some(0.0), ..FaultPlan::default() };
        assert_eq!(bad.watchdog_timeout(), DEFAULT_WATCHDOG_TIMEOUT_S);
        let nan = FaultPlan { watchdog_timeout_s: Some(f64::NAN), ..FaultPlan::default() };
        assert_eq!(nan.watchdog_timeout(), DEFAULT_WATCHDOG_TIMEOUT_S);
        let good = FaultPlan { watchdog_timeout_s: Some(0.25), ..FaultPlan::default() };
        assert_eq!(good.watchdog_timeout(), 0.25);
    }
}
