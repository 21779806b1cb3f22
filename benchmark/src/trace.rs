//! Span recording for the traced pass.
//!
//! Spans are opened by the wrappers in [`crate::wrap`] and by the driver
//! loops, at the boundaries between layers; nothing inside the product
//! crates is instrumented. A span names its layer, the member (executor or
//! tenant) and round it belongs to, and the span that caused it. They are
//! kept in memory and written out when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// `round` of a span that belongs to no round.
pub const NO_ROUND: i32 = -1;

/// One closed span. `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub member: u32,
    pub round: i32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans of this thread, innermost last: a new span's parent.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every thread of the process.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span under the innermost open span of this thread.
    pub fn span(&self, name: &'static str, member: u32, round: i32) -> SpanGuard<'_> {
        let parent = OPEN.with(|o| o.borrow().last().copied().unwrap_or(0));
        self.span_under(parent, name, member, round)
    }

    /// Open a span under an explicit parent: work a pool thread does on
    /// behalf of a span opened on the driver thread.
    pub fn span_under(
        &self,
        parent: u32,
        name: &'static str,
        member: u32,
        round: i32,
    ) -> SpanGuard<'_> {
        // Relaxed: the id only has to be unique, it publishes nothing.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push(id));
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            member,
            round,
            start_ns: self.origin.elapsed().as_nanos() as u64,
        }
    }

    /// Take every span closed so far.
    pub fn drain(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no span is recorded while panicking");
        std::mem::take(&mut *spans)
    }
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u32,
    parent: u32,
    name: &'static str,
    member: u32,
    round: i32,
    start_ns: u64,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.origin.elapsed().as_nanos() as u64;
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(at) = o.iter().rposition(|&id| id == self.id) {
                o.remove(at);
            }
        });
        // A poisoned lock means another thread panicked mid-push; the run
        // is failing anyway and `Drop` must not panic on top of it.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                member: self.member,
                round: self.round,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that its child spans cover. Children may overlap each other
/// (tenant rounds on two pool threads), so the covered part is the union
/// of their intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals, accumulated cycle by cycle so that a long traced phase
/// does not have to keep every span.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub layers: BTreeMap<&'static str, LayerTotals>,
}

impl Summary {
    pub fn add(&mut self, spans: &[Span]) {
        let selfs = self_times(spans);
        for s in spans {
            let l = self.layers.entry(s.name).or_default();
            l.count += 1;
            l.total_ns += s.dur_ns();
            l.self_ns += selfs[&s.id];
        }
    }

    pub fn get(&self, name: &str) -> LayerTotals {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Total duration of `name`'s spans, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.get(name).total_ns as f64 / 1e6
    }

    /// Mean duration of one `name` span, ms; 0 when the layer never ran.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let l = self.get(name);
        if l.count == 0 {
            0.0
        } else {
            l.total_ns as f64 / 1e6 / l.count as f64
        }
    }

    /// The table committed under `results/`: one row per span name.
    pub fn render(&self, workload: &str, cycles: u64) -> String {
        let wall: u64 = self.get(ROOT).total_ns.max(1);
        let mut out = format!(
            "# trace summary: workload {workload}, {cycles} traced cycle(s); \
             share = self time / total `{ROOT}` time (tenants on two pool threads \
             add up to more than 100%)\n\
             {:<28} {:>9} {:>13} {:>13} {:>7}\n",
            "span", "count", "total_ms", "self_ms", "share"
        );
        for (name, l) in &self.layers {
            out.push_str(&format!(
                "{name:<28} {:>9} {:>13.3} {:>13.3} {:>6.1}%\n",
                l.count,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
                100.0 * l.self_ns as f64 / wall as f64
            ));
        }
        out
    }
}

/// Name of the root span the driver opens around each timed pass.
pub const ROOT: &str = "pass";

/// Write spans as JSON lines: `{id, parent, name, member, round, start_ns,
/// end_ns}`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"member\":{},\"round\":{},\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.member, s.round, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            member: 0,
            round: NO_ROUND,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(1, 0, "step", 0, 100),
            span(2, 1, "before", 10, 40),
            span(3, 1, "after", 60, 90),
            span(4, 2, "plan", 15, 25),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 30);
        assert_eq!(st[&2], 30 - 10);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&4], 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = [
            span(1, 0, "run", 100, 200),
            // Two pool threads at once, and one child that outlives the
            // parent's interval.
            span(2, 1, "tenant", 110, 150),
            span(3, 1, "tenant", 130, 170),
            span(4, 1, "tenant", 190, 260),
        ];
        let st = self_times(&spans);
        // Covered: [110,170) and [190,200).
        assert_eq!(st[&1], 100 - 60 - 10);
    }

    #[test]
    fn guards_nest_through_the_thread_stack() {
        let t = Tracer::new();
        {
            let outer = t.span("outer", 3, 7);
            let outer_id = outer.id();
            {
                let _inner = t.span("inner", 3, 7);
            }
            let _explicit = t.span_under(outer_id, "explicit", 4, NO_ROUND);
        }
        let _after = t.span("after", 0, NO_ROUND);
        drop(_after);
        let spans = t.drain();
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by("outer").parent, 0);
        assert_eq!(by("inner").parent, by("outer").id);
        assert_eq!(by("explicit").parent, by("outer").id);
        assert_eq!(by("after").parent, 0);
        assert_eq!((by("inner").member, by("inner").round), (3, 7));
        assert!(t.drain().is_empty());
    }

    #[test]
    fn summary_totals_and_means() {
        let mut s = Summary::default();
        s.add(&[
            span(1, 0, ROOT, 0, 4_000_000),
            span(2, 1, "x", 0, 1_000_000),
            span(3, 1, "x", 2_000_000, 3_000_000),
        ]);
        assert_eq!(s.get("x").count, 2);
        assert!((s.total_ms("x") - 2.0).abs() < 1e-12);
        assert!((s.mean_ms("x") - 1.0).abs() < 1e-12);
        assert_eq!(s.get(ROOT).self_ns, 2_000_000);
        assert_eq!(s.mean_ms("absent"), 0.0);
        assert!(s.render("w", 1).contains("x "));
    }
}
