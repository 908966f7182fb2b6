//! Spans around the benchmark's own calls into each layer.
//!
//! The program under test has no span vocabulary yet (ROADMAP item 1), so
//! every span here opens and closes in this crate, on the one driver
//! thread, around a call into a layer's public function. Spans stay in
//! memory and are written once, when the run ends, in Chrome trace format.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::json::Json;

struct Span {
    layer: &'static str,
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
    repeat: u64,
}

/// Times every wrapped call; records a span for it only while enabled, so
/// the untraced run pays one `Instant` pair per call and nothing else.
pub struct Tracer {
    origin: Instant,
    enabled: Cell<bool>,
    /// Index of the innermost open span.
    open: Cell<Option<usize>>,
    /// Workload-repeat id stamped on new spans.
    repeat: Cell<u64>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: Cell::new(false),
            open: Cell::new(None),
            repeat: Cell::new(0),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Start the next workload repeat: spans opened from now on carry the
    /// new id, which is what ties one repeat's spans together.
    pub fn next_repeat(&self) {
        self.repeat.set(self.repeat.get() + 1);
    }

    /// Run `f` as a span of `layer`, returning its result and wall seconds.
    pub fn time<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        if !self.enabled.get() {
            let t0 = Instant::now();
            let r = f();
            return (r, t0.elapsed().as_secs_f64());
        }
        let parent = self.open.get();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                layer,
                name,
                start_us: 0.0,
                dur_us: 0.0,
                parent,
                repeat: self.repeat.get(),
            });
            spans.len() - 1
        };
        self.open.set(Some(idx));
        let t0 = Instant::now();
        let r = f();
        let secs = t0.elapsed().as_secs_f64();
        self.open.set(parent);
        let span = &mut self.spans.borrow_mut()[idx];
        span.start_us = t0.duration_since(self.origin).as_secs_f64() * 1e6;
        span.dur_us = secs * 1e6;
        (r, secs)
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// The spans as complete (`"ph": "X"`) Chrome trace events; a
    /// span's id is its index, `parent` the index of the span that was
    /// open when it started.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .borrow()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.layer)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.dur_us)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("repeat", Json::Num(s.repeat as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_only_record_when_enabled() {
        let t = Tracer::new();
        let (v, secs) = t.time("dl", "forward", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(t.span_count(), 0, "disabled tracer records nothing");

        t.set_enabled(true);
        t.next_repeat();
        t.time("bench", "repeat", || {
            t.time("dl", "forward", || ());
            t.time("dl", "backward", || ());
        });
        let spans = t.spans.borrow();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.repeat == 1));
        assert!(spans[0].dur_us >= spans[1].dur_us + spans[2].dur_us);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.time("sim", "ring_allreduce", || ());
        let doc = Json::parse(&t.chrome_trace().render()).expect("valid JSON");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("cat").and_then(Json::as_str), Some("sim"));
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
    }
}
