//! The benchmark's own span recorder, used only by traced runs.
//!
//! Spans are recorded from the benchmark's side of each public call
//! (engine start, `check_bound`, `reduce`, service and wire submits);
//! intervals the program reports itself (a job's queue wait and solve
//! time) go in as child spans. Everything stays in memory until the
//! run ends, so writing the trace never perturbs the timed phase.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use sebmc_service::EngineKind;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (0 is "no span" and never used).
    pub id: u32,
    /// The enclosing span, or 0 for a root.
    pub parent: u32,
    /// The job or instance the span belongs to.
    pub job: u64,
    /// Layer-qualified name, such as `core.jsat.check_bound`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// A per-thread span buffer. When tracing is off every method is a
/// no-op and ids are 0.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder sharing `epoch` with its siblings; `base` keeps the
    /// ids of different threads apart.
    pub fn new(on: bool, epoch: Instant, base: u32) -> Self {
        Tracer {
            on,
            epoch,
            next: base.max(1),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Reserves an id for a span that will be recorded once it ends
    /// (children are recorded before their parent).
    pub fn id(&mut self) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.next;
        self.next += 1;
        id
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records span `id` (from [`Tracer::id`]) over `start..end`.
    pub fn record(
        &mut self,
        id: u32,
        name: &'static str,
        parent: u32,
        job: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                job,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    /// Records a span that has no children under a fresh id.
    pub fn leaf(
        &mut self,
        name: &'static str,
        parent: u32,
        job: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.id();
        self.record(id, name, parent, job, start, end);
    }

    /// Records a program-reported interval of length `len` starting at
    /// `start` as a child of `parent`.
    pub fn child_interval(
        &mut self,
        name: &'static str,
        parent: u32,
        job: u64,
        start: Instant,
        len: Duration,
    ) {
        self.leaf(name, parent, job, start, start + len);
    }

    /// Moves every recorded span out of the buffer.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// The span name of `Session::check_bound` on engine `e`.
pub fn check_span(e: EngineKind) -> &'static str {
    match e {
        EngineKind::Jsat => "core.jsat.check_bound",
        EngineKind::Unroll => "core.unroll.check_bound",
        EngineKind::QbfLinear => "qbf.linear.check_bound",
        EngineKind::QbfSquaring => "qbf.squaring.check_bound",
    }
}

/// Self time of each span (its duration minus the part its children
/// cover), keyed by span id.
fn self_ns(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            (
                s.id,
                dur.saturating_sub(covered.get(&s.id).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// Self times in milliseconds, grouped by span name.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let own = self_ns(spans);
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by.entry(s.name).or_default().push(own[&s.id] as f64 / 1e6);
    }
    by
}

/// Summed self time (ms) of the spans named `name`.
pub fn total_self_ms(by: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    by.get(name).map_or(0.0, |v| v.iter().sum())
}

/// Writes the spans as JSON lines, one object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let own = self_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
            s.id,
            s.parent,
            s.job,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            own[&s.id] as f64 / 1e3
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(true, t0, 1);
        let parent = tr.id();
        tr.child_interval("child", parent, 7, t0, Duration::from_millis(3));
        tr.record(parent, "parent", 0, 7, t0, t0 + Duration::from_millis(10));
        let by = self_ms_by_name(&tr.take());
        assert!((total_self_ms(&by, "parent") - 7.0).abs() < 1e-9);
        assert!((total_self_ms(&by, "child") - 3.0).abs() < 1e-9);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now(), 1);
        assert_eq!(tr.id(), 0);
        tr.leaf("x", 0, 0, Instant::now(), Instant::now());
        assert!(tr.take().is_empty());
    }
}
