//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A [`Tracer`] records one [`Span`] per public call the benchmark makes
//! into a crate (`serving.run`, `fleet.digest`, ...): its name, start, end,
//! parent and workload.  Spans stay in memory and are written out once the
//! run ends.  A disabled tracer (the untraced, end-to-end runs) records
//! nothing and only calls through.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span, unique within one [`Tracer`].
pub type SpanId = usize;

/// One finished span.  Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: SpanId,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Layer call name, e.g. `"serving.run"`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans from any number of threads.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.  `f` receives the
    /// new span's id so the calls it makes can record children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        // The id only names the span; it publishes no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(Some(id));
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("a traced thread panicked while recording")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// All recorded spans, in id order.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("a traced thread panicked while recording");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children.  Children that overlap each other (shards run
/// on parallel workers) are counted once, as the union of their intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    let by_id: BTreeMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) {
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children.entry(parent.id).or_default().push((start, end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map(|iv| union_length(iv))
                .unwrap_or(0);
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Total length of the union of half-open intervals.
fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Total duration, in seconds, of the spans named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum()
}

/// The spans as a JSON array, each with its self time and workload.
pub fn to_json(spans: &[Span], workload: &str) -> String {
    let self_ns = self_times(spans);
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {}, \"name\": \"{}\", \"workload\": \"{}\", \"parent\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}\n",
            s.id,
            s.name,
            workload,
            parent,
            s.start_ns,
            s.end_ns,
            self_ns[&s.id],
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}
