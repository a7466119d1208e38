//! What every workload returns, and the pieces they share: correctness
//! checks, repeated set-up, the run's clock and peak memory.

use crate::stats;
use crate::trace::Recorder;
use std::time::{Duration, Instant};

/// Untraced latencies a run keeps for the whole-run notes (bounds memory
/// on the microsecond-scale hot stream).
pub const MAX_SAMPLES: usize = 1_000_000;

/// Fewest repetitions of the operation sequence a run makes, whatever
/// `--seconds` says. Each operation is reported at its fastest
/// repetition: other tenants of a shared host slow whole seconds of a run
/// and only ever add time.
pub const MIN_REPS: usize = 3;

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A workload's result.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// End-to-end metrics (always measured, with tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty unless the run was traced).
    pub per_layer: Vec<Metric>,
    /// Extra facts for the run history: sample counts and the like.
    pub notes: Vec<(String, f64)>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Option<Recorder>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, name: impl Into<String>, value: f64) {
        self.notes.push((name.into(), value));
    }

    /// Record `op_p50_us`, `op_p95_us` and `ops_per_s` from the fastest
    /// latency of each operation of the repeated sequence (`best`, seconds)
    /// and the sequence's API seconds at those latencies (`api_s`).
    pub fn latencies(&mut self, best: &[f64], api_s: f64, reps: usize) {
        let sorted = stats::sorted(best);
        self.e2e("op_p50_us", stats::percentile(&sorted, 50.0) * 1e6, "us");
        self.e2e("op_p95_us", stats::percentile(&sorted, 95.0) * 1e6, "us");
        self.e2e("ops_per_s", best.len() as f64 / api_s, "1/s");
        self.note("sequence_ops", best.len() as f64);
        self.note("repetitions", reps as f64);
        self.checks.require(
            stats::beyond(best.len(), 95.0) >= stats::MIN_BEYOND_TAIL,
            || {
                format!(
                    "a sequence of {} operations is too short for a p95",
                    best.len()
                )
            },
        );
        self.checks
            .require(reps >= 1 && best.iter().all(|t| t.is_finite()), || {
                "an operation of the sequence never ran untraced".to_string()
            });
    }
}

/// Whole-run median and 99th percentile of every untraced latency, for the
/// history.
pub fn whole_run_notes(out: &mut Outcome, latencies: &[f64]) {
    if latencies.is_empty() {
        return;
    }
    let all = stats::sorted(latencies);
    out.note("op_samples", all.len() as f64);
    out.note("op_p50_us_all", stats::percentile(&all, 50.0) * 1e6);
    out.note("op_p99_us_all", stats::percentile(&all, 99.0) * 1e6);
}

/// Failed correctness checks, by description.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
    pub evaluated: u64,
}

impl Checks {
    /// Record a check; `what` describes the failure and is only built
    /// when the check fails.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.evaluated += 1;
        if !ok && self.failures.len() < 32 {
            self.failures.push(what());
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Build the workload's state `times` times and keep the last; returns it
/// with the median set-up time in seconds. Repeating makes `setup_s`
/// steady; `build` is told whether it is making the copy that is kept.
pub fn repeated_setup<T>(times: usize, mut build: impl FnMut(bool) -> T) -> (T, f64) {
    let mut took = Vec::with_capacity(times);
    let mut kept = None;
    for i in 0..times {
        // Drop the previous copy first so peak memory holds one copy.
        drop(kept.take());
        let t0 = Instant::now();
        let state = build(i + 1 == times);
        took.push(t0.elapsed().as_secs_f64());
        kept = Some(state);
    }
    (kept.expect("at least one set-up"), stats::median(&took))
}

/// The measurement deadline of a run.
pub struct Clock {
    end: Instant,
}

impl Clock {
    pub fn start(seconds: u64) -> Self {
        Clock {
            end: Instant::now() + Duration::from_secs(seconds),
        }
    }

    pub fn expired(&self) -> bool {
        Instant::now() >= self.end
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_reports_the_median_and_keeps_the_last() {
        let mut calls = Vec::new();
        let (kept, _) = repeated_setup(3, |last| {
            calls.push(last);
            calls.len()
        });
        assert_eq!(kept, 3);
        assert_eq!(calls, vec![false, false, true]);
    }
}
