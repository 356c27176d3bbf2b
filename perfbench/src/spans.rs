//! Host-clock spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a span covers exactly one call, as seen from the caller.
//!
//! Spans stay in memory during the run and are written once at the end
//! as Chrome `trace_event` JSON through the repository's own exporter.

use std::time::Instant;
use trace::{SpanKind, TraceEvent};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `vm.run`.
    pub name: &'static str,
    /// App the call worked on (empty for whole-op spans).
    pub app: &'static str,
    /// Request id shared by every span of one op.
    pub request: u64,
    /// Timeline row: `op` for the op path, `probe` for side measurements,
    /// `serve` for serving-layer calls.
    pub track: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: f64,
    /// Duration in ns.
    pub dur_ns: f64,
}

/// An in-memory span recorder on the host clock.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as one span and return its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        app: &'static str,
        request: u64,
        track: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, app, request, track, start, Instant::now());
        out
    }

    /// Record a span measured elsewhere between `start` and `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        app: &'static str,
        request: u64,
        track: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            app,
            request,
            track,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as f64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as f64,
        });
    }

    /// Total ms of spans named `name` among the latest spans with
    /// request id `request` (requests are recorded in order, so only the
    /// tail is scanned).
    pub fn total_ms(&self, name: &str, request: u64) -> f64 {
        self.spans
            .iter()
            .rev()
            .take_while(|s| s.request == request)
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum::<f64>()
            / 1e6
    }

    /// Chrome `trace_event` JSON of every span (host clock).
    pub fn chrome_json(&self) -> String {
        let events: Vec<TraceEvent> = self
            .spans
            .iter()
            .map(|s| {
                TraceEvent::span(SpanKind::Marker, s.name, s.track, s.start_ns, s.dur_ns)
                    .with_arg("request", s.request)
                    .with_arg("app", s.app)
                    .with_arg("clock", "host")
            })
            .collect();
        trace::chrome_json(&events)
    }
}
