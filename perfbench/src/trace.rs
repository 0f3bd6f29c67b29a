//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only in this benchmark's own code, around each call it
//! makes into a layer's public functions. Each span carries its layer (the
//! crate or module called), a start and end on the host clock, and its
//! parent. Recording is off in untraced runs: [`Tracer::span`] then only
//! calls the closure.

use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer the call went into: `md-core`, `harness`, `sim-sweep`, ...
    pub layer: &'static str,
    /// The public function called.
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Run `f` inside a span named `layer`/`name`. Spans opened inside `f`
    /// become its children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            layer,
            name,
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON of every span, one category per layer.
    pub fn chrome_json(&self) -> String {
        let mut trace = sim_obs::ChromeTrace::new();
        trace.thread_name(0, "perfbench");
        for s in &self.spans {
            trace.span(0, s.name, s.layer, s.start_s, s.duration_s());
        }
        trace.render()
    }
}

/// Each span's self time: its duration minus the durations of its direct
/// children. Spans are opened and closed in stack order on one thread, so
/// children never overlap one another.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::duration_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.duration_s();
        }
    }
    out
}

/// Per `(layer, name)`: call count, total time and self time, in first-call
/// order.
pub fn self_time_table(spans: &[Span]) -> Vec<(&'static str, &'static str, usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, &'static str, usize, f64, f64)> = Vec::new();
    for (s, self_s) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.layer && r.1 == s.name) {
            Some(r) => {
                r.2 += 1;
                r.3 += s.duration_s();
                r.4 += self_s;
            }
            None => rows.push((s.layer, s.name, 1, s.duration_s(), self_s)),
        }
    }
    rows
}

/// Self seconds per call of one `(layer, name)` row, summed over its calls.
pub fn self_total(spans: &[Span], layer: &str, name: &str) -> (usize, f64) {
    self_time_table(spans)
        .into_iter()
        .find(|r| r.0 == layer && r.1 == name)
        .map_or((0, 0.0), |r| (r.2, r.4))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            layer: "t",
            name,
            start_s,
            end_s,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,10] > run [1,7] > init [2,3]; op > collect [8,9].
        let spans = vec![
            span("op", 0.0, 10.0, None),
            span("run", 1.0, 7.0, Some(0)),
            span("init", 2.0, 3.0, Some(1)),
            span("collect", 8.0, 9.0, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![3.0, 5.0, 1.0, 1.0]);
        // Self times partition the root span.
        assert_eq!(selfs.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn table_aggregates_repeated_calls() {
        let spans = vec![
            span("op", 0.0, 4.0, None),
            span("run", 0.5, 1.5, Some(0)),
            span("run", 2.0, 3.5, Some(0)),
        ];
        assert_eq!(self_total(&spans, "t", "run"), (2, 2.5));
        assert_eq!(self_total(&spans, "t", "op"), (1, 1.5));
        assert_eq!(self_total(&spans, "t", "absent"), (0, 0.0));
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("a", "outer", |t| t.span("b", "inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].start_s <= t.spans()[1].start_s);
        assert!(t.spans()[1].end_s <= t.spans()[0].end_s);
        assert!(t.chrome_json().contains("\"cat\":\"b\""));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("a", "outer", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
