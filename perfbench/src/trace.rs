//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions, kept
//! in memory, and written out once at the end as Chrome trace-event JSON
//! (viewable in Perfetto). A layer's self time is its spans' durations
//! minus the parts covered by their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layer of the structural spans (the run, its set-up, each batch or
/// call). Their self time is the benchmark loop's own, not a layer's.
pub const LOOP: &str = "loop";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the span is charged to (a module name of the program).
    pub layer: &'static str,
    /// The public call the span wraps.
    pub name: &'static str,
    /// Batch, quarter or request id the span belongs to.
    pub id: u64,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records properly nested spans.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`] in LIFO order.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, id: u64) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            id,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span, which must be `idx`.
    pub fn end(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.begin(layer, name, id);
        let out = f();
        self.end(s);
        out
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, ms: each span's duration minus its children's.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer).or_insert(0.0) += s.dur_ns().saturating_sub(c) as f64 / 1e6;
        }
        out
    }

    /// Total wall time of the root spans, ms.
    pub fn root_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span on a
    /// single track, with its id and parent in `args`.
    pub fn chrome_json(&self, process: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let root = t.begin(LOOP, "run", 0);
        let child = t.begin("store", "add", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let by_layer = t.self_ms_by_layer();
        assert!(by_layer["store"] >= 2.0);
        let total: f64 = by_layer.values().sum();
        assert!((total - t.root_ms()).abs() < 1e-6);
        assert_eq!(t.spans()[child].parent, Some(root));
        assert!(t.chrome_json("p").contains("\"parent\":0"));
    }
}
