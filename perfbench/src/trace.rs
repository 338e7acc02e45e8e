//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into the engine's public API —
//! one span per call, named `<layer>.<call>` — and nest by the
//! recorder's stack, so a request (one recovery, one first read, one
//! media restore) is a root span whose children are the calls it made.
//! Spans stay in memory until the run ends. A disabled recorder only
//! runs the wrapped closure, which is how the untraced run measures
//! end-to-end numbers.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `generalized.recover`.
    pub name: &'static str,
    /// Start, in ns since the recorder's origin.
    pub start: u64,
    /// End, in ns since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to (shared by a root and its
    /// descendants).
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    gauges: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            gauges: BTreeMap::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Is this recorder recording?
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        self.spans[idx].start = self.now();
        let out = f(self);
        self.spans[idx].end = self.now();
        self.stack.pop();
        out
    }

    /// Runs `f` as a new request: a root span with a fresh request id.
    pub fn request<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.request += 1;
        self.span(name, f)
    }

    /// Records `v` for the gauge `name` unless it already holds a value
    /// (and only when tracing): gauges report the pass's first image and
    /// first request, so they repeat exactly at a fixed seed however many
    /// cycles the pass ran.
    pub fn gauge(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.gauges.entry(name).or_insert(v);
        }
    }

    /// Appends another recorder's spans (a client thread's, sharing this
    /// recorder's origin), keeping request ids distinct.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let req_base = self.request;
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            s.request += req_base;
            self.spans.push(s);
        }
        self.request += other.request;
    }

    /// A gauge's value (0 if never recorded).
    pub fn gauge_value(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_request() {
        let mut t = Tracer::new(true, Instant::now());
        t.request("root", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |t| t.span("c", |_| ()));
        });
        let s = &t.spans;
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.request == 1 && x.start <= x.end));
        assert!(s[1].start >= s[0].start && s[1].end <= s[0].end);
        assert_eq!(t.durations("a"), vec![s[1].dur() as f64]);
    }

    #[test]
    fn disabled_recorder_records_nothing_but_runs_the_call() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.request("root", |t| t.span("x", |_| 7)), 7);
        t.gauge("n", 1.0);
        assert!(t.spans.is_empty());
        assert_eq!(t.gauge_value("n"), 0.0);
    }

    #[test]
    fn absorb_keeps_requests_and_parents_apart() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        a.request("r", |t| t.span("x", |_| ()));
        let mut b = Tracer::new(true, origin);
        b.request("r", |t| t.span("x", |_| ()));
        a.absorb(b);
        let s = &a.spans;
        assert_eq!(s[3].parent, Some(2));
        assert_ne!(s[0].request, s[2].request);
        assert_eq!(a.durations("x").len(), 2);
    }
}
