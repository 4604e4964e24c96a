//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A traced client op is a root span (`op.read` / `op.write`); each call
//! into a layer's public function inside it is a child span. Background
//! work (`txn.checkpoint`, `txn.vacuum`) records roots of its own. Spans
//! stay in per-thread buffers until the run ends.

use std::collections::HashMap;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// Enclosing span, or `None` for a root.
    pub parent: Option<u64>,
    /// Layer call name, e.g. `txn.read_into`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder. Only every `every`-th op is traced, and
/// only while enabled; otherwise each call costs one branch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    every: u64,
    ops: u64,
    next_id: u64,
    root: Option<(u64, &'static str, u64)>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for thread `thread`, sharing `epoch` with the others;
    /// traces one op in `every` once enabled.
    pub fn new(epoch: Instant, thread: u64, every: u64) -> Self {
        Tracer {
            epoch,
            enabled: false,
            every: every.max(1),
            ops: 0,
            next_id: (thread + 1) << 40,
            root: None,
            spans: Vec::new(),
        }
    }

    /// Turn span recording on or off (between windows, not inside an op).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Start a client op; it becomes a root span if it is sampled.
    pub fn begin_op(&mut self, name: &'static str) {
        debug_assert!(self.root.is_none(), "ops do not nest");
        if !self.enabled {
            return;
        }
        self.ops += 1;
        if self.ops.is_multiple_of(self.every) {
            let id = self.fresh_id();
            self.root = Some((id, name, self.now()));
        }
    }

    /// Finish the current op.
    pub fn end_op(&mut self) {
        if let Some((id, name, start)) = self.root.take() {
            let end = self.now();
            self.spans.push(Span {
                id,
                parent: None,
                name,
                start,
                end,
            });
        }
    }

    /// Run `f` as a child span of the current op (untimed when the op is
    /// not traced).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some((parent, _, _)) = self.root else {
            return f();
        };
        let start = self.now();
        let out = f();
        let end = self.now();
        let id = self.fresh_id();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            start,
            end,
        });
        out
    }

    /// Record a finished root span that is not a client op.
    pub fn record_root(&mut self, name: &'static str, started: Instant, ended: Instant) {
        let id = self.fresh_id();
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: None,
            name,
            start: since(started),
            end: since(ended),
        });
    }

    /// The recorded spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span: its duration minus the time its children
/// cover (the union of their intervals). Fails naming the first span
/// whose self time is negative, which means children were recorded
/// outside their parent.
pub fn self_times(spans: &[Span]) -> Result<HashMap<u64, u64>, String> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out = HashMap::with_capacity(spans.len());
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |c| union_len(c));
        let own = s.duration() as i128 - covered as i128;
        if own < 0 {
            return Err(format!(
                "span {} ({}) has negative self time: {} ns long, children cover {} ns",
                s.id,
                s.name,
                s.duration(),
                covered
            ));
        }
        out.insert(s.id, own as u64);
    }
    Ok(out)
}

/// Total length of the union of `[start, end)` intervals.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Share of the client-op roots' time that their child spans cover.
pub fn coverage(spans: &[Span], self_ns: &HashMap<u64, u64>) -> Option<f64> {
    let (mut total, mut own) = (0u64, 0u64);
    for s in spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name.starts_with("op."))
    {
        total += s.duration();
        own += self_ns[&s.id];
    }
    (total > 0).then(|| (total - own) as f64 / total as f64)
}

/// Durations (ns) of the spans named `name`, optionally only those under
/// a root named `root`.
pub fn durations(spans: &[Span], name: &str, root: Option<&str>) -> Vec<u64> {
    let roots: HashMap<u64, &str> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.id, s.name))
        .collect();
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| root.is_none_or(|r| s.parent.and_then(|p| roots.get(&p)) == Some(&r)))
        .map(Span::duration)
        .collect()
}

/// Total self time per span name, largest first.
pub fn self_time_by_name(
    spans: &[Span],
    self_ns: &HashMap<u64, u64>,
) -> Vec<(&'static str, u64, u64)> {
    let mut by: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for s in spans {
        let e = by.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns[&s.id];
    }
    let mut v: Vec<_> = by.into_iter().map(|(n, (c, t))| (n, c, t)).collect();
    v.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // op [0, 100): children [10, 30) and [25, 60) overlap, so they
        // cover [10, 60) = 50 ns; the grandchild [12, 20) covers 8 ns of
        // the first child.
        let spans = vec![
            span(1, None, "op.read", 0, 100),
            span(2, Some(1), "txn.begin", 10, 30),
            span(3, Some(1), "txn.read_into", 25, 60),
            span(4, Some(2), "inner", 12, 20),
            span(5, Some(1), "txn.commit", 70, 75),
            span(6, None, "txn.vacuum", 200, 260),
        ];
        let own = self_times(&spans).unwrap();
        assert_eq!(own[&1], 100 - 50 - 5);
        assert_eq!(own[&2], 20 - 8);
        assert_eq!(own[&3], 35);
        assert_eq!(own[&4], 8);
        assert_eq!(own[&5], 5);
        assert_eq!(own[&6], 60);
        // Coverage counts client ops only, not the vacuum root.
        let cov = coverage(&spans, &own).unwrap();
        assert!((cov - 0.55).abs() < 1e-12, "{cov}");
        assert_eq!(durations(&spans, "txn.commit", Some("op.read")), vec![5]);
        assert!(durations(&spans, "txn.commit", Some("op.write")).is_empty());
    }

    #[test]
    fn negative_self_time_is_an_error() {
        let spans = vec![
            span(1, None, "op.read", 0, 10),
            span(2, Some(1), "txn.read_into", 0, 30),
        ];
        let err = self_times(&spans).unwrap_err();
        assert!(err.contains("negative self time"), "{err}");
    }

    #[test]
    fn tracer_samples_every_nth_op() {
        let mut t = Tracer::new(Instant::now(), 0, 2);
        t.set_enabled(true);
        for _ in 0..4 {
            t.begin_op("op.read");
            t.span("core.fetch_read", || ());
            t.end_op();
        }
        let spans = t.take();
        assert_eq!(spans.len(), 4, "two sampled ops, one child each");
        let own = self_times(&spans).unwrap();
        assert!(coverage(&spans, &own).unwrap() <= 1.0);
    }
}
