//! The per-layer metrics of a traced run: one fixed list for every
//! workload, so a layer a workload bypasses reads zero calls.

use crate::harness::Outcome;
use crate::stats;
use crate::trace::{by_layer, Span};
use dopia_core::{CacheStats, RuntimeHealth};

/// Span names of the module calls the traced run times. Each is reported
/// as the mean self time per call in microseconds.
const TIMED: [(&str, &str); 8] = [
    ("clc.compile", "clc.compile_us"),
    ("features.extract", "features.extract_us"),
    ("codegen.malleable", "codegen.malleable_us"),
    ("codegen.cpu", "codegen.cpu_us"),
    ("interp.compile", "interp.compile_us"),
    ("profile", "profile.us"),
    ("model.select", "model.select_us"),
    ("des.simulate", "des.simulate_us"),
];

/// Counts and sums a workload gathers while it replays the layers.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub items_sampled: u64,
    pub des_groups: u64,
    /// `(real call, replayed layers)` seconds per program build.
    pub builds: Vec<(f64, f64)>,
    /// `(real enqueue, replayed layers, replayed DES)` seconds per launch.
    pub launches: Vec<(f64, f64, f64)>,
    /// Real end-to-end seconds the traced part took, and the part of it
    /// the replayed layers account for.
    pub real_s: f64,
    pub attributed_s: f64,
    /// Median real-call latency with tracing on and off, in seconds.
    pub traced_median_s: f64,
    pub untraced_median_s: f64,
    pub cache: CacheStats,
    pub health: RuntimeHealth,
    pub dram_bytes: f64,
    pub cpu_busy_s: f64,
    pub gpu_busy_s: f64,
    pub lost_groups: u64,
    pub ml_rows: u64,
    pub tree_nodes: f64,
    pub tree_depth: u64,
}

/// Median self time in microseconds of `(real call, replayed layers)`
/// seconds pairs, and how many pairs have the layers outlast the call.
fn self_us(calls: impl Iterator<Item = (f64, f64)>) -> (f64, usize) {
    let own: Vec<f64> = calls.map(|(real, layers)| (real - layers) * 1e6).collect();
    let negative = own.iter().filter(|&&us| us < 0.0).count();
    let median = if own.is_empty() {
        0.0
    } else {
        stats::median(&own)
    };
    (median, negative)
}

/// Push every per-layer metric onto `out`.
pub fn report(out: &mut Outcome, spans: &[Span], c: &Counters) {
    let layers = by_layer(spans);
    let calls = |name: &str| layers.get(name).map_or(0, |t| t.calls);
    let self_s = |name: &str| layers.get(name).map_or(0.0, |t| t.self_ns as f64 * 1e-9);
    for (span, metric) in TIMED {
        let n = calls(span);
        let us = if n == 0 {
            0.0
        } else {
            self_s(span) * 1e6 / n as f64
        };
        out.layer(metric, us, "us");
    }
    // What a real call took beyond the layers it ran is the runtime's own
    // work. A single call can come out negative when its replayed exact
    // DES runs slower than the real one did, so the median is reported and
    // only a negative median fails.
    let runtime = [
        ("runtime.build_self_us", self_us(c.builds.iter().copied())),
        (
            "runtime.enqueue_self_us",
            self_us(c.launches.iter().map(|l| (l.0, l.1))),
        ),
    ];
    for (metric, (us, negative)) in runtime {
        out.layer(metric, us, "us");
        out.note(format!("{metric}.negative_calls"), negative as f64);
        out.checks.require(us >= 0.0, || {
            format!("{metric}: the replayed layers outlast the median real call ({us:.3} us)")
        });
    }
    out.layer("profile.calls", calls("profile") as f64, "count");
    out.layer("profile.items_sampled", c.items_sampled as f64, "count");
    out.layer("model.calls", calls("model.select") as f64, "count");
    out.layer("des.calls", calls("des.simulate") as f64, "count");
    out.layer("des.groups", c.des_groups as f64, "count");
    let kgroups = c.des_groups as f64 / 1000.0;
    let des_us = self_s("des.simulate") * 1e6;
    out.layer(
        "des.us_per_kgroup",
        if kgroups > 0.0 { des_us / kgroups } else { 0.0 },
        "us",
    );
    out.layer("tail.des_share_pct", tail_des_share(&c.launches), "%");

    let cache = c.cache;
    out.layer("cache.hits", cache.hits as f64, "count");
    out.layer("cache.misses", cache.misses as f64, "count");
    out.layer("cache.evictions", cache.evictions as f64, "count");
    out.layer("cache.invalidations", cache.invalidations as f64, "count");
    let lookups = cache.hits + cache.misses;
    let ratio = if lookups == 0 {
        0.0
    } else {
        cache.hits as f64 / lookups as f64
    };
    out.layer("cache.hit_ratio", ratio, "ratio");

    let h = c.health;
    out.layer("supervision.breaker_trips", h.breaker_trips as f64, "count");
    out.layer(
        "supervision.breaker_pinned_launches",
        h.breaker_pinned_launches as f64,
        "count",
    );
    out.layer(
        "supervision.quarantined_launches",
        h.quarantined_launches as f64,
        "count",
    );
    out.layer(
        "supervision.model_quarantines",
        h.model_quarantines as f64,
        "count",
    );
    out.layer(
        "supervision.redispatched_groups",
        h.redispatched_groups as f64,
        "count",
    );
    out.layer(
        "supervision.watchdog_recoveries",
        h.watchdog_recoveries as f64,
        "count",
    );
    out.layer(
        "queue.transient_retries",
        h.transient_retries as f64,
        "count",
    );

    out.layer("sim.dram_bytes", c.dram_bytes, "B");
    out.layer("sim.cpu_busy_s", c.cpu_busy_s, "s");
    out.layer("sim.gpu_busy_s", c.gpu_busy_s, "s");
    out.layer("sim.lost_groups", c.lost_groups as f64, "count");

    out.layer("workloads.build_s", self_s("workloads.build"), "s");
    out.layer("training.sweep_s", self_s("training.sweep"), "s");
    out.layer("training.cv_s", self_s("cv.workload_cv"), "s");
    out.layer("training.dataset_s", self_s("training.dataset"), "s");
    out.layer("ml.fit_s", self_s("ml.fit"), "s");
    out.layer("ml.rows", c.ml_rows as f64, "count");
    out.layer("ml.tree_nodes", c.tree_nodes, "count");
    out.layer("ml.tree_depth", c.tree_depth as f64, "count");

    let overhead = if c.untraced_median_s > 0.0 {
        100.0 * (c.traced_median_s - c.untraced_median_s) / c.untraced_median_s
    } else {
        f64::NAN
    };
    out.layer("trace.overhead_pct", overhead, "%");
    let residual = if c.real_s > 0.0 {
        100.0 * (c.real_s - c.attributed_s) / c.real_s
    } else {
        0.0
    };
    out.layer("trace.residual_pct", residual, "%");
    out.layer("trace.spans", spans.len() as f64, "count");
}

/// Share of the slowest launches' enqueue time (those at or above the
/// 99th percentile) that the replayed DES accounts for, in percent.
fn tail_des_share(launches: &[(f64, f64, f64)]) -> f64 {
    if launches.is_empty() {
        return 0.0;
    }
    let reals: Vec<f64> = launches.iter().map(|l| l.0).collect();
    let cut = stats::percentile(&stats::sorted(&reals), 99.0);
    let (real, des) = launches
        .iter()
        .filter(|l| l.0 >= cut)
        .fold((0.0, 0.0), |(r, d), l| (r + l.0, d + l.2));
    100.0 * des / real
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_share_uses_only_the_slowest_launches() {
        // p99 of 100 launches is the 99th smallest: both slow ones.
        let mut launches = vec![(1.0, 0.5, 0.1); 98];
        launches.extend([(10.0, 9.0, 8.0), (10.0, 9.0, 8.0)]);
        assert_eq!(tail_des_share(&launches), 80.0);
        assert_eq!(tail_des_share(&[]), 0.0);
    }

    #[test]
    fn every_workload_reports_the_same_metric_names() {
        let mut a = Outcome::default();
        report(&mut a, &[], &Counters::default());
        let names: Vec<&str> = a.per_layer.iter().map(|m| m.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "metric names repeat");
        assert!(names.contains(&"runtime.enqueue_self_us"));
    }
}
