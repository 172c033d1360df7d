//! Spans recorded from the benchmark's own code around every call it
//! makes into a camj crate.
//!
//! A span is (id, parent, op, name, start, end). Spans stay in memory
//! and are written out when the run ends. Recording is decided per op:
//! a [`Ctx`] carries the op id, the parent span and whether this op is
//! recorded, so a traced run can interleave traced and untraced ops of
//! the same loop and measure the tracing overhead directly.
//!
//! [`Tracer::span`] always measures the wall time of the call (the
//! end-to-end metrics need it with tracing off too) and only records
//! the span when the context says so.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span, times in nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// Where a call sits: its op, its parent span, and whether it records.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub op: u64,
    pub parent: u64,
    pub record: bool,
}

impl Ctx {
    /// The context of a new op: no parent span yet.
    pub fn op(op: u64, record: bool) -> Self {
        Self {
            op,
            parent: 0,
            record,
        }
    }
}

/// The in-memory span store.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, returning its result and
    /// its wall time in seconds. `f` receives the child context, so
    /// calls it makes nest under this span.
    pub fn span<R>(&self, ctx: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> R) -> (R, f64) {
        let id = if ctx.record {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let child = Ctx {
            op: ctx.op,
            parent: id,
            record: ctx.record,
        };
        let start = Instant::now();
        let out = f(child);
        let end = Instant::now();
        if ctx.record {
            let ns = |t: Instant| t.duration_since(self.t0).as_nanos() as u64;
            self.spans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(Span {
                    id,
                    parent: ctx.parent,
                    op: ctx.op,
                    name,
                    start: ns(start),
                    end: ns(end),
                });
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// A snapshot of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (children may run in parallel on
/// other threads, so their union is taken, not their sum).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end - s.start;
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// The layer a span name belongs to: a short key (the metric suffix
/// of `self_share.*`) and the crate or module it names.
pub fn layer_of(name: &str) -> (&'static str, &'static str) {
    match name.split('.').next().unwrap_or("") {
        "desc" => ("desc", "camj-desc"),
        "sim" => ("sim", "camj-digital::sim"),
        "energy" => ("energy", "camj-core::energy"),
        "frame" => ("frame", "camj-core::functional"),
        "dag" => ("dag", "camj-digital::functional"),
        "image" => ("image", "shims/image"),
        "explore" if name == "explore.build_point" => ("workloads", "camj-workloads::edgaze"),
        "explore" => ("explore", "camj-explore"),
        "validation" => ("workloads", "camj-workloads::validation"),
        "serve" => ("serve", "camj-serve"),
        "cli" => ("cli", "src/bin/camj.rs"),
        _ => ("bench", "benchmark (unattributed)"),
    }
}

/// Per span name: call count, total duration, total self time (ns),
/// and every duration (for per-call medians).
#[derive(Debug, Default)]
pub struct NameStats {
    pub calls: u64,
    pub total: u64,
    pub self_total: u64,
    pub durations: Vec<u64>,
}

/// Aggregates spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total += s.end - s.start;
        e.self_total += own;
        e.durations.push(s.end - s.start);
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; two overlapping children 10..40 and 30..60
        // (parallel workers) and one 90..120 clipped at the parent end.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 1, 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 50 - 10);
        assert_eq!(selfs[1], 30);
    }
}
