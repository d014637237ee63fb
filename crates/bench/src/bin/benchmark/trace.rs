//! Spans recorded by the benchmark around each call into a layer.
//!
//! The program under test is not instrumented: a span is opened here,
//! immediately before a public function is called, and closed when it
//! returns. Spans stay in memory and are written out once, at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one request share `request`; `parent` is
/// the index of the span that caused this one.
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The in-memory span buffer. A disabled tracer records nothing, which is
/// how end-to-end runs and the untraced replay stay free of its cost.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; the handle goes to [`Tracer::end`] and serves as the
    /// `parent` of spans opened inside it.
    pub fn begin(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, span: Option<usize>) {
        if let Some(id) = span {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, request, parent);
        let out = f();
        self.end(span);
        out
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Seconds spent in the spans called `name`, summed.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<u64>() as f64 / 1e9
    }

    /// Per layer name: span count and summed self time, where a span's
    /// self time is its duration minus its children's durations.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (usize, u64)> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] = self_ns[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += ns;
        }
        by_name
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Tracer {
        // request ── parse            10..30
        //         └─ serve ── score   serve 40..90, score 50..70
        let mut t = Tracer::new(true);
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            request: 7,
            parent,
            start_ns,
            end_ns,
        };
        t.spans.push(span("request", None, 0, 100));
        t.spans.push(span("parse", Some(0), 10, 30));
        t.spans.push(span("serve", Some(0), 40, 90));
        t.spans.push(span("score", Some(2), 50, 70));
        t
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let by_name = fixture().self_time_by_name();
        assert_eq!(by_name["request"], (1, 100 - 20 - 50));
        assert_eq!(by_name["parse"], (1, 20));
        assert_eq!(by_name["serve"], (1, 50 - 20));
        assert_eq!(by_name["score"], (1, 20));
        // self times partition the root: nothing is counted twice
        let total: u64 = by_name.values().map(|&(_, ns)| ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn begin_end_nest_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", 1, None);
        let got = t.time("leaf", 1, root, || 42);
        t.end(root);
        assert_eq!(got, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert_eq!(t.durations_ns("leaf").len(), 1);

        let mut off = Tracer::new(false);
        let root = off.begin("root", 1, None);
        assert_eq!(root, None);
        assert_eq!(off.time("leaf", 1, root, || 42), 42);
        off.end(root);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_parent_links() {
        let dir = std::env::temp_dir().join(format!("ocular-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        fixture().write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            r#"{"id":0,"name":"request","request":7,"parent":null,"start_ns":0,"end_ns":100}"#
        );
        assert!(lines[3].contains(r#""parent":2"#));
    }
}
