//! Execution tracers: hooks the interpreter calls on every memory access
//! and arithmetic operation.
//!
//! The functional path uses [`NullTracer`] (zero cost); the profiler uses
//! [`TracingTracer`], which records per-site access counts and short address
//! prefixes from which access patterns, strides and footprints are derived.

use crate::buffer::BufferId;

/// Identity of a static memory-access site: a dense index assigned at
/// compile time by [`crate::interp::compile::SiteTable`] (one id per `Index`
/// expression in the kernel body, in traversal order). Dense ids let the
/// tracer use a flat `Vec` instead of a hash map, and both the bytecode VM
/// and the tree-walking reference oracle (`dopia-interp-oracle`) share the
/// same table — so
/// repeated executions of the same expression accumulate into one site and
/// the two engines produce comparable statistics.
pub type SiteKey = u32;

/// Recorded statistics for one access site during one work-item execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteStats {
    /// Buffer accessed (sites always target a single buffer in the subset).
    pub buffer: Option<BufferId>,
    /// Element size in bytes.
    pub elem_bytes: usize,
    /// Whether this site is a store.
    pub is_store: bool,
    /// Total accesses (extrapolated counts included).
    pub count: f64,
    /// First few element indices observed, in order (pre-extrapolation).
    pub prefix: Vec<i64>,
}

/// Maximum recorded address-prefix length per site per work-item.
pub const PREFIX_LEN: usize = 16;

/// Hooks invoked by the interpreter. All methods default to no-ops so the
/// functional path pays nothing.
pub trait Tracer {
    /// A load of `elem_bytes` bytes at element `idx` of `buf` from the site
    /// keyed by `site`.
    fn load(&mut self, _site: SiteKey, _buf: BufferId, _idx: i64, _elem_bytes: usize) {}
    /// A store (profile mode suppresses the actual write but still traces).
    fn store(&mut self, _site: SiteKey, _buf: BufferId, _idx: i64, _elem_bytes: usize) {}
    /// `count` arithmetic operations, float or integer.
    fn arith(&mut self, _is_float: bool, _count: f64) {}
    /// Begin a scaling region: everything recorded after this call until the
    /// matching [`Tracer::end_scale`] is multiplied by `factor`. Used by the
    /// profile-mode loop extrapolation. Regions nest multiplicatively.
    fn begin_scale(&mut self, _factor: f64) {}
    fn end_scale(&mut self) {}
}

/// The zero-cost tracer for functional runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {}

/// The recording tracer for profiling runs. Site statistics live in a flat
/// vector indexed by the dense [`SiteKey`] (grown on demand), so the per-
/// access hot path is an array index instead of a hash lookup.
#[derive(Debug, Default)]
pub struct TracingTracer {
    /// Per-site statistics, indexed by site id; `None` for untouched sites.
    sites: Vec<Option<SiteStats>>,
    /// Site keys in first-touch order (stable reporting order).
    pub site_order: Vec<SiteKey>,
    /// Extrapolated float-op count.
    pub flops: f64,
    /// Extrapolated integer-op count.
    pub iops: f64,
    /// Stack of multiplicative scale factors (product applied to counts).
    scale_stack: Vec<f64>,
    scale: f64,
}

impl TracingTracer {
    pub fn new() -> Self {
        TracingTracer { scale: 1.0, ..Default::default() }
    }

    /// Statistics for one site, if it was touched.
    pub fn site(&self, site: SiteKey) -> Option<&SiteStats> {
        self.sites.get(site as usize).and_then(|s| s.as_ref())
    }

    /// Touched sites in first-touch order.
    pub fn sites(&self) -> impl Iterator<Item = (SiteKey, &SiteStats)> + '_ {
        self.site_order.iter().map(move |&k| {
            (k, self.sites[k as usize].as_ref().expect("ordered site present"))
        })
    }

    fn access(&mut self, site: SiteKey, buf: BufferId, idx: i64, elem_bytes: usize, store: bool) {
        let slot = site as usize;
        if slot >= self.sites.len() {
            self.sites.resize(slot + 1, None);
        }
        let entry = &mut self.sites[slot];
        if entry.is_none() {
            self.site_order.push(site);
            *entry = Some(SiteStats {
                buffer: Some(buf),
                elem_bytes,
                is_store: store,
                ..Default::default()
            });
        }
        let stats = entry.as_mut().expect("just inserted");
        stats.count += self.scale;
        if stats.prefix.len() < PREFIX_LEN {
            stats.prefix.push(idx);
        }
        // A site used for both loads and stores (e.g. `a[i] += x`) counts as
        // both; keep the store flag sticky.
        if store {
            stats.is_store = true;
        }
    }

    /// Total accesses across all sites.
    pub fn total_accesses(&self) -> f64 {
        self.sites.iter().flatten().map(|s| s.count).sum()
    }
}

impl Tracer for TracingTracer {
    fn load(&mut self, site: SiteKey, buf: BufferId, idx: i64, elem_bytes: usize) {
        self.access(site, buf, idx, elem_bytes, false);
    }

    fn store(&mut self, site: SiteKey, buf: BufferId, idx: i64, elem_bytes: usize) {
        self.access(site, buf, idx, elem_bytes, true);
    }

    fn arith(&mut self, is_float: bool, count: f64) {
        if is_float {
            self.flops += count * self.scale;
        } else {
            self.iops += count * self.scale;
        }
    }

    fn begin_scale(&mut self, factor: f64) {
        self.scale_stack.push(self.scale);
        self.scale *= factor;
    }

    fn end_scale(&mut self) {
        self.scale = self.scale_stack.pop().unwrap_or(1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_scale_in_regions() {
        let mut t = TracingTracer::new();
        t.arith(true, 1.0);
        t.begin_scale(10.0);
        t.arith(true, 1.0);
        t.begin_scale(2.0);
        t.arith(false, 1.0);
        t.end_scale();
        t.end_scale();
        t.arith(false, 1.0);
        assert_eq!(t.flops, 11.0); // 1 + 10
        assert_eq!(t.iops, 21.0); // 20 + 1
    }

    #[test]
    fn site_prefix_capped() {
        let mut t = TracingTracer::new();
        for i in 0..100 {
            t.load(7, BufferId(0), i, 4);
        }
        let s = t.site(7).unwrap();
        assert_eq!(s.count, 100.0);
        assert_eq!(s.prefix.len(), PREFIX_LEN);
        assert_eq!(s.prefix[3], 3);
        assert!(!s.is_store);
    }

    #[test]
    fn load_then_store_marks_store() {
        let mut t = TracingTracer::new();
        t.load(1, BufferId(0), 0, 4);
        t.store(1, BufferId(0), 0, 4);
        assert!(t.site(1).unwrap().is_store);
        assert_eq!(t.total_accesses(), 2.0);
    }

    #[test]
    fn sites_iterate_in_first_touch_order() {
        let mut t = TracingTracer::new();
        t.load(9, BufferId(0), 0, 4);
        t.store(2, BufferId(1), 1, 8);
        t.load(9, BufferId(0), 1, 4);
        let order: Vec<SiteKey> = t.sites().map(|(k, _)| k).collect();
        assert_eq!(order, vec![9, 2]);
        assert!(t.site(3).is_none());
    }
}
