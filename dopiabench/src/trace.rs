//! In-memory span recorder for the traced run.
//!
//! Each span covers one call into a module's public API, made from the
//! benchmark's own code. Spans nest through an explicit stack and carry
//! the id of the operation (a launch, a program build, a training
//! iteration) they belong to. A span's self time is its duration minus
//! the part of it that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to (0 outside any operation).
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    next_op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            next_op: 1,
        }
    }
}

impl Recorder {
    /// Start a new operation: later spans carry its id until the next call.
    pub fn begin_op(&mut self) -> u64 {
        self.op = self.next_op;
        self.next_op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration, in seconds, of the outermost spans recorded from
    /// index `first` on: the time a replay spent inside the calls it
    /// timed, without the code around them.
    pub fn seconds_since(&self, first: usize) -> f64 {
        let ns: u64 = self.spans[first..]
            .iter()
            .filter(|s| s.parent.is_none_or(|p| p < first))
            .map(Span::duration_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Write every span as one tab-separated line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\top\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{own}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals over the spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_ns: u64,
}

/// Group spans by name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("op", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 140, 160, Some(0)),
            span("c", 190, 250, Some(0)),
        ];
        // Covered: [100,160) and [190,200) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_groups() {
        let mut rec = Recorder::default();
        let op = rec.begin_op();
        let outer = rec.enter("outer");
        let x = rec.time("inner", || 2 + 2);
        rec.time("inner", || ());
        rec.exit(outer);
        assert_eq!(x, 4);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.op == op));
        assert_eq!(spans[1].parent, Some(0));
        let layers = by_layer(spans);
        assert_eq!(layers["inner"].calls, 2);
        let own = self_times(spans);
        assert_eq!(layers["outer"].self_ns, own[0]);
        assert_eq!(own[0] + own[1] + own[2], spans[0].duration_ns());
    }

    #[test]
    fn seconds_since_sums_only_the_new_outermost_spans() {
        let mut rec = Recorder::default();
        rec.time("before", || ());
        let op = rec.enter("op");
        let first = rec.spans().len();
        rec.time("a", || {
            std::thread::sleep(std::time::Duration::from_micros(50))
        });
        let b = rec.enter("b");
        rec.time("b.inner", || ());
        rec.exit(b);
        rec.exit(op);
        let s = rec.spans();
        let want = s[2].duration_ns() + s[3].duration_ns();
        assert_eq!(rec.seconds_since(first), want as f64 * 1e-9);
        assert_eq!(rec.seconds_since(s.len()), 0.0);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut rec = Recorder::default();
        let a = rec.enter("a");
        let _b = rec.enter("b");
        rec.exit(a);
    }
}
