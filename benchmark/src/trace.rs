//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing inside the program under test changes: a span is opened by the
//! benchmark just before a call into a layer's public function and closed
//! just after. Spans stay in memory until the workload ends; a layer's
//! self time is its span minus the part of that interval its children
//! cover. Timestamps are wall-clock; every span also carries the host's
//! speed around it (see [`crate::reference`]), which the per-name totals
//! scale by, as the untraced run scales its times.

use crate::reference::HostSpeed;
use crate::stats::{median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Parent id of a root span.
pub const NO_PARENT: u32 = 0;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based identifier, unique within a [`Tracer`].
    pub id: u32,
    /// The span that caused this one ([`NO_PARENT`] for a root).
    pub parent: u32,
    /// Request identifier shared by every span of one request.
    pub req: u32,
    /// `layer.function` name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Work done inside the span, counted where it happens (bytes, tokens,
    /// blocks or calls — the metric that reads the span says which).
    pub work: u64,
    /// The host's speed around the span, as a share of the reference
    /// host's. A child carries the speed its root span started at: the
    /// reference kernel never runs inside an open span.
    pub speed: f64,
}

/// What the layer metrics read per span name, at the reference host's
/// speed. Medians, not means: a neighbour taking the core mid-probe
/// stretches a few spans a lot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Spans with this name.
    pub count: u64,
    /// Median span duration, nanoseconds.
    pub median_ns: f64,
    /// 99th-percentile span duration, nanoseconds.
    pub p99_ns: f64,
    /// Median over spans of duration per unit of work.
    pub median_ns_per_work: f64,
}

impl Total {
    /// Median microseconds per span.
    pub fn us_per_span(&self) -> f64 {
        self.median_ns / 1e3
    }
}

/// In-memory span recorder. Nesting follows the call structure: a span
/// opened inside another span's closure becomes its child.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    host: HostSpeed,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Speed the open root span started at.
    root_speed: f64,
    next_id: u32,
    req: u32,
    recording: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A recording tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            host: HostSpeed::new(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            root_speed: 1.0,
            next_id: 1,
            req: 0,
            recording: true,
        }
    }

    /// Turns recording on or off. While off, [`span`](Self::span) still
    /// runs its closure — warm-up passes execute but leave no spans.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Starts a new request: spans recorded from now on share a fresh
    /// request identifier.
    pub fn next_request(&mut self) {
        self.req += 1;
    }

    /// Runs `f` inside a span named `name` that did `work` units of work.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        work: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.recording {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let req = self.req;
        let root = parent == NO_PARENT;
        let before = if root {
            self.host.fresh()
        } else {
            self.root_speed
        };
        self.root_speed = before;
        self.open.push(id);
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        let speed = if root {
            self.host
                .around(before, Duration::from_nanos(end_ns - start_ns))
        } else {
            before
        };
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
            work,
            speed,
        });
        out
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median of the host speeds measured around the spans.
    pub fn host_speed(&self) -> f64 {
        self.host.median_seen()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Self time of every span, in the order given: its duration minus the
/// union of its children's intervals clipped to it. Children may nest
/// deeper, sit back to back, or overlap one another (work that ran on
/// several threads under one parent) — an instant covered by two
/// children is subtracted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(frontier);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    frontier = b;
                }
            }
            dur - covered
        })
        .collect()
}

/// Totals per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut samples: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in spans {
        let dur = (s.end_ns - s.start_ns) as f64 * s.speed;
        let (durs, rates) = samples.entry(s.name).or_default();
        durs.push(dur);
        rates.push(dur / s.work.max(1) as f64);
    }
    samples
        .into_iter()
        .map(|(name, (durs, rates))| {
            let total = Total {
                count: durs.len() as u64,
                median_ns: median(&durs),
                p99_ns: percentile(&durs, 99.0),
                median_ns_per_work: median(&rates),
            };
            (name, total)
        })
        .collect()
}

/// Serializes spans as a JSON document: `header` (already JSON) followed
/// by one object per span with its parent link, request id and self time.
pub fn to_json(header: &str, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut s = String::with_capacity(spans.len() * 96 + header.len() + 32);
    let _ = write!(s, "{{\"header\": {header}, \"spans\": [");
    for (i, (sp, self_ns)) in spans.iter().zip(selfs).enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}, \"self_ns\": {}, \"work\": {}, \"speed\": {:.4}}}",
            sp.id, sp.parent, sp.req, sp.name, sp.start_ns, sp.end_ns, self_ns, sp.work, sp.speed
        );
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "t",
            start_ns,
            end_ns,
            work: 0,
            speed: 1.0,
        }
    }

    #[test]
    fn nested_children_subtract_only_from_their_parent() {
        // root 0..100 ⊃ mid 10..60 ⊃ leaf 20..30
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 30)];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn adjacent_children_sum() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 0, 40), span(3, 1, 40, 90)];
        assert_eq!(self_times(&spans), vec![10, 40, 50]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two threads' spans 10..60 and 30..80 cover 10..80 = 70 of 100.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 30, 80)];
        assert_eq!(self_times(&spans)[0], 30);
        // A child poking past its parent is clipped to it.
        let spans = [span(1, 0, 0, 100), span(2, 1, 90, 140)];
        assert_eq!(self_times(&spans)[0], 90);
        // A child nested inside a sibling adds nothing.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 90), span(3, 1, 20, 30)];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn tracer_links_parents_and_skips_unrecorded_passes() {
        let mut tr = Tracer::new();
        tr.set_recording(false);
        assert_eq!(tr.span("warmup", 1, |_| 7), 7);
        tr.set_recording(true);
        tr.next_request();
        tr.span("outer", 2, |tr| {
            tr.span("inner", 3, |_| ());
            tr.span("inner", 4, |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, NO_PARENT);
        assert!(spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent == outer.id && s.req == 1));
        let t = totals(spans);
        assert_eq!(t["inner"].count, 2);
        // Totals are scaled by the speed around the root span, which its
        // children share.
        assert!(spans
            .iter()
            .all(|s| s.speed == outer.speed && s.speed > 0.0));
        let outer_ns = (outer.end_ns - outer.start_ns) as f64 * outer.speed;
        assert_eq!(t["outer"].median_ns, outer_ns);
        assert_eq!(t["outer"].median_ns_per_work, outer_ns / 2.0);
        let inner_ns: u64 = spans
            .iter()
            .filter(|s| s.name == "inner")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let outer_self = self_times(spans)[spans.iter().position(|s| s.name == "outer").unwrap()];
        assert_eq!(outer_self + inner_ns, outer.end_ns - outer.start_ns);
        assert!(to_json("{}", spans).contains("\"parent\": 1"));
    }
}
