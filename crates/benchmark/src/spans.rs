//! The benchmark's own span recorder: one span per call into a layer, kept
//! in memory and written as trace-event JSON when the run ends.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, `<crate>.<what>`.
    pub name: &'static str,
    /// Seconds since the recorder's epoch.
    pub start_s: f64,
    /// Seconds since the recorder's epoch.
    pub end_s: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (the request identifier).
    pub rep: usize,
}

impl Span {
    /// Length in seconds.
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Repetition stamped on new spans.
    pub rep: usize,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let t = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: t,
            end_s: t,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`; its seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let t = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_s = t;
        self.spans[id].dur_s()
    }

    /// Records `f` as one leaf span; its result and seconds.
    pub fn record<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name);
        let v = f();
        (v, self.close(id))
    }

    /// Adds an already-timed child of `parent` (a layer that returns its
    /// own stage timings instead of being called stage by stage).
    pub fn child_at(&mut self, name: &'static str, parent: usize, start_s: f64, dur_s: f64) {
        let rep = self.spans[parent].rep;
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s + dur_s,
            parent: Some(parent),
            rep,
        });
    }

    /// Forgets which spans are open, after a panic unwound through them.
    pub fn abandon_open(&mut self) {
        self.open.clear();
    }

    /// All spans, in start order of their opening.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds covered by the direct children of span `id`.
    pub fn children_s(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_s)
            .sum()
    }

    /// A span's self time: its duration minus its children's.
    pub fn self_s(&self, id: usize) -> f64 {
        self.spans[id].dur_s() - self.children_s(id)
    }

    /// Chrome / Perfetto trace-event JSON: one complete (`"X"`) event per
    /// span on a single track, with the span id, its parent's id, its
    /// repetition and its self time in `args`.
    pub fn to_trace_json(&self, process: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":{}}}}}",
            trace::json_str(process)
        ));
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\n{{\"name\":{},\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"rep\":{},\"self_us\":{:.3}}}}}",
                trace::json_str(s.name),
                s.start_s * 1e6,
                s.dur_s() * 1e6,
                s.rep,
                self.self_s(id) * 1e6,
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut r = Recorder::new();
        let root = r.open("root");
        let (v, leaf_s) = r.record("leaf", || 7);
        assert_eq!(v, 7);
        r.child_at("timed-elsewhere", root, r.spans()[root].start_s, 0.25);
        r.rep = 1;
        let total = r.close(root);
        assert_eq!(r.spans()[1].parent, Some(root));
        assert_eq!(
            r.spans()[2].rep,
            0,
            "a child carries its parent's repetition"
        );
        assert!((r.children_s(root) - (leaf_s + 0.25)).abs() < 1e-12);
        assert!((r.self_s(root) - (total - leaf_s - 0.25)).abs() < 1e-12);
    }

    #[test]
    fn trace_json_validates_and_links_parents() {
        let mut r = Recorder::new();
        let root = r.open("request");
        r.record("sparsemat.graph_build", || ());
        r.close(root);
        let text = r.to_trace_json("benchmark \"cube3d\"");
        assert_eq!(trace::validate_json(&text), Ok(()));
        let doc = parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 3);
        let child = &events[2];
        assert_eq!(
            child.get("name").and_then(Value::as_str),
            Some("sparsemat.graph_build")
        );
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            events[1].get("args").unwrap().get("parent"),
            Some(&Value::Null)
        );
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut r = Recorder::new();
        let a = r.open("a");
        let _b = r.open("b");
        r.close(a);
    }
}
