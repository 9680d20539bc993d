//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer's public function: name, start,
//! end, the span that caused it, and the request (burst or cell) it
//! belongs to. Spans nest through an explicit stack, so a layer's self
//! time is its duration minus the time its child spans cover. Totals are
//! aggregated for every span; the first [`Tracer::CAP`] records are kept
//! and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Identifier of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

/// One closed span as written to the trace file.
#[derive(Debug, Clone)]
struct Record {
    id: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u64>,
    request: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
    parent: Option<u64>,
    request: u64,
    child_ns: u64,
}

/// Accumulated time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans closed under this name.
    pub count: u64,
    /// Summed wall time.
    pub total_ns: u64,
    /// Summed self time (wall time minus child spans).
    pub self_ns: u64,
}

/// The recorder.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    stack: Vec<Open>,
    records: Vec<Record>,
    totals: BTreeMap<&'static str, Total>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// Span records kept for the trace file; later spans only aggregate.
    pub const CAP: usize = 1 << 20;

    /// An empty recorder; span times are relative to now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            records: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str, request: u64) -> SpanId {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map(|o| o.id);
        self.stack.push(Open {
            id,
            name,
            start: Instant::now(),
            parent,
            request,
            child_ns: 0,
        });
        SpanId(id)
    }

    /// Closes the innermost span, which must be `id`. Returns its wall
    /// time in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order (a bug in the caller).
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = Instant::now();
        let open = self.stack.pop().expect("close without open span");
        assert_eq!(open.id, id.0, "spans must close innermost first");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let total = self.totals.entry(open.name).or_default();
        total.count += 1;
        total.total_ns += dur;
        total.self_ns += dur.saturating_sub(open.child_ns);
        if self.records.len() < Self::CAP {
            let start_ns = open.start.duration_since(self.origin).as_nanos() as u64;
            self.records.push(Record {
                id: open.id,
                name: open.name,
                start_ns,
                end_ns: start_ns + dur,
                parent: open.parent,
                request: open.request,
            });
        }
        dur
    }

    /// Times `body` as one span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, body: impl FnOnce() -> T) -> T {
        let id = self.open(name, request);
        let out = body();
        self.close(id);
        out
    }

    /// Aggregate of one span name (zero if it never closed).
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Summed wall time of one span name, in seconds.
    pub fn seconds(&self, name: &str) -> f64 {
        self.total(name).total_ns as f64 / 1e9
    }

    /// Spans recorded (including those past the file cap).
    pub fn spans(&self) -> u64 {
        self.next_id
    }

    /// Writes the kept span records as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in &self.records {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                r.id, r.name, r.start_ns, r.end_ns, parent, r.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.open("outer", 7);
        let inner = t.open("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_ns = t.close(inner);
        let outer_ns = t.close(outer);
        let o = t.total("outer");
        assert_eq!(o.count, 1);
        assert_eq!(o.total_ns, outer_ns);
        assert_eq!(o.self_ns, outer_ns - inner_ns);
        assert_eq!(t.total("inner").self_ns, inner_ns);
        assert_eq!(t.total("missing"), Total::default());
        assert_eq!(t.spans(), 2);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_close_panics() {
        let mut t = Tracer::new();
        let a = t.open("a", 0);
        let _b = t.open("b", 0);
        t.close(a);
    }
}
