//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, start and end (nanoseconds since the tracer was
//! created), the id of the span that caused it (0 for a root) and the id of
//! the request it belongs to. Spans are kept in memory and written out once,
//! when the run ends. A layer's self time is its span's duration minus the
//! part of that interval covered by its children.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Span {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    /// Toggled by the interleaved on/off blocks of a traced run; spans are
    /// only recorded while it is set.
    recording: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Totals of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    pub count: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            recording: AtomicBool::new(enabled),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records in even one-second blocks of `elapsed` and not in odd ones,
    /// so traced and untraced operations interleave (a no-op on an
    /// untraced run).
    pub fn alternate(&self, elapsed: Duration) {
        self.set_recording(elapsed.as_secs().is_multiple_of(2));
    }

    /// Turns recording on or off (a no-op on an untraced run).
    pub fn set_recording(&self, on: bool) {
        self.recording.store(self.enabled && on, Ordering::SeqCst);
    }

    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::SeqCst)
    }

    /// Runs `f` inside a span; `f` receives the span's id (0 when not
    /// recording) to pass as the parent of nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.recording() {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
        out
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Count and summed self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += dur - covered;
        }
        out
    }

    /// Writes every span as one JSON object per line; returns the count.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}
