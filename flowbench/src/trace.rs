//! Outside-in tracing: spans recorded by the benchmark around each call it
//! makes into a library layer, kept in memory and aggregated when the run
//! ends.

use std::time::{Duration, Instant};

/// Layer name of the span that encloses one whole request; the layer spans
/// recorded while it runs are its children.
pub const REQUEST: &str = "request";

/// One timed call into a layer.
struct Span {
    layer: &'static str,
    start: Instant,
    end: Instant,
}

/// Span and counter recorder. A disabled trace only runs the closures.
pub struct Trace {
    enabled: bool,
    spans: Vec<Span>,
    counts: Vec<(&'static str, u64)>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Runs one request under a [`REQUEST`] span.
    pub fn request<T>(&mut self, f: impl FnOnce(&mut Trace) -> T) -> T {
        let start = Instant::now();
        let out = f(self);
        self.record(REQUEST, start);
        out
    }

    /// Runs `f` as one call into `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.record(layer, start);
        out
    }

    fn record(&mut self, layer: &'static str, start: Instant) {
        if self.enabled {
            self.spans.push(Span {
                layer,
                start,
                end: Instant::now(),
            });
        }
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&mut self, name: &'static str, value: u64) {
        if self.enabled {
            self.counts.push((name, value));
        }
    }

    /// Total time spent in `layer`. Layer spans of one request never
    /// overlap, so this is also the layer's self time.
    pub fn layer_time(&self, layer: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Total of the counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .sum()
    }
}
